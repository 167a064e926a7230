package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind classifies one fault rule.
type Kind int

const (
	// DiskTransient makes a disk read fail with a retryable error.
	DiskTransient Kind = iota
	// DiskPermanent makes a disk read fail with a non-retryable error.
	DiskPermanent
	// DiskSlow adds Extra latency to a disk read (a stalling spindle).
	DiskSlow
	// CacheCorrupt makes a cache hit fail its payload checksum.
	CacheCorrupt
	// Crash kills the whole node at virtual time At.
	Crash
)

// kindNames is the spec vocabulary, in both directions.
var kindNames = map[Kind]string{
	DiskTransient: "disk-transient",
	DiskPermanent: "disk-permanent",
	DiskSlow:      "disk-slow",
	CacheCorrupt:  "corrupt",
	Crash:         "crash",
}

// String names the kind as it appears in a spec.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule is one fault clause of a spec.
type Rule struct {
	Kind Kind
	// Node targets one node; -1 applies to every node.
	Node int
	// P is the per-operation probability for probabilistic kinds.
	P float64
	// At is the crash time (Crash only).
	At time.Duration
	// After and Until bound the active window of probabilistic kinds;
	// Until == 0 means no upper bound.
	After, Until time.Duration
	// Extra is added latency: the spike of DiskSlow, or the
	// failure-detection cost attached to an injected error.
	Extra time.Duration
}

// Spec is a parsed fault schedule.
type Spec struct {
	Rules []Rule
}

// String renders the spec in the grammar ParseSpec accepts, so
// ParseSpec(s.String()) round-trips.
func (s Spec) String() string {
	parts := make([]string, 0, len(s.Rules))
	for _, r := range s.Rules {
		var b strings.Builder
		b.WriteString(r.Kind.String())
		if r.Node >= 0 {
			fmt.Fprintf(&b, "@%d", r.Node)
		}
		var params []string
		if r.Kind == Crash {
			params = append(params, "at="+r.At.String())
		} else {
			params = append(params, "p="+strconv.FormatFloat(r.P, 'g', -1, 64))
			if r.After > 0 {
				params = append(params, "after="+r.After.String())
			}
			if r.Until > 0 {
				params = append(params, "until="+r.Until.String())
			}
			if r.Extra > 0 {
				params = append(params, "extra="+r.Extra.String())
			}
		}
		b.WriteString(":" + strings.Join(params, ","))
		parts = append(parts, b.String())
	}
	return strings.Join(parts, ";")
}

// ParseSpec parses a fault schedule. The grammar, one rule per
// semicolon-separated clause:
//
//	rule   := kind ['@' node] [':' param (',' param)*]
//	kind   := disk-transient | disk-permanent | disk-slow | corrupt | crash
//	param  := key '=' value
//
// Probabilistic kinds take p (required, in (0, 1]), after/until (virtual
// time window, Go durations) and extra (added latency; for error kinds
// the failure-detection cost). crash takes only at (required). '@node'
// restricts a rule to one node; without it the rule applies everywhere.
//
// Examples:
//
//	disk-transient:p=0.05,until=30s
//	crash@1:at=5s;disk-slow:p=0.1,extra=50ms
//	corrupt:p=0.01,after=10s
//
// The empty string parses to an empty Spec (fault injection off).
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		r, err := parseRule(clause)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: rule %q: %w", clause, err)
		}
		spec.Rules = append(spec.Rules, r)
	}
	return spec, nil
}

// parseRule parses one clause of the grammar.
func parseRule(clause string) (Rule, error) {
	head, params, hasParams := strings.Cut(clause, ":")
	name, nodeStr, hasNode := strings.Cut(strings.TrimSpace(head), "@")
	r := Rule{Node: -1}
	found := false
	for k, n := range kindNames {
		if n == name {
			r.Kind, found = k, true
			break
		}
	}
	if !found {
		return Rule{}, fmt.Errorf("unknown fault kind %q (want %s)", name, strings.Join(kindList(), ", "))
	}
	if hasNode {
		n, err := strconv.Atoi(strings.TrimSpace(nodeStr))
		if err != nil || n < 0 {
			return Rule{}, fmt.Errorf("bad node %q", nodeStr)
		}
		r.Node = n
	}
	seen := map[string]bool{}
	if hasParams {
		for _, p := range strings.Split(params, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			key, val, ok := strings.Cut(p, "=")
			if !ok {
				return Rule{}, fmt.Errorf("parameter %q is not key=value", p)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			if seen[key] {
				return Rule{}, fmt.Errorf("duplicate parameter %q", key)
			}
			seen[key] = true
			var err error
			switch key {
			case "p":
				r.P, err = strconv.ParseFloat(val, 64)
			case "at":
				r.At, err = parseDur(val)
			case "after":
				r.After, err = parseDur(val)
			case "until":
				r.Until, err = parseDur(val)
			case "extra":
				r.Extra, err = parseDur(val)
			default:
				return Rule{}, fmt.Errorf("unknown parameter %q", key)
			}
			if err != nil {
				return Rule{}, fmt.Errorf("parameter %s: %v", key, err)
			}
		}
	}
	return r, validateRule(r, seen)
}

// validateRule enforces per-kind parameter requirements.
func validateRule(r Rule, seen map[string]bool) error {
	switch r.Kind {
	case Crash:
		if !seen["at"] {
			return fmt.Errorf("crash needs at=<virtual time>")
		}
		for _, k := range []string{"p", "after", "until", "extra"} {
			if seen[k] {
				return fmt.Errorf("crash does not take %s", k)
			}
		}
	default:
		if seen["at"] {
			return fmt.Errorf("%v does not take at (use after/until)", r.Kind)
		}
		if !(r.P > 0 && r.P <= 1) {
			return fmt.Errorf("%v needs p in (0, 1], got %g", r.Kind, r.P)
		}
		if r.Until > 0 && r.Until <= r.After {
			return fmt.Errorf("empty window: until %v <= after %v", r.Until, r.After)
		}
		if r.Kind == DiskSlow && r.Extra <= 0 {
			return fmt.Errorf("disk-slow needs extra=<latency>")
		}
	}
	return nil
}

// parseDur parses a non-negative Go duration.
func parseDur(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return d, nil
}

// kindList returns the kind vocabulary in stable order for error text.
func kindList() []string {
	out := make([]string, 0, len(kindNames))
	for _, n := range kindNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
