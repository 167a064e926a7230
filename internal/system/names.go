package system

import (
	"fmt"
	"strings"
)

// Scheduler selects the scheduling algorithm for a System.
type Scheduler int

const (
	// SchedNoShare evaluates queries independently in arrival order.
	SchedNoShare Scheduler = iota
	// SchedLifeRaft1 is LifeRaft with age bias α = 1 (arrival-order
	// scheduling with incidental co-scheduling of same-atom requests).
	SchedLifeRaft1
	// SchedLifeRaft2 is LifeRaft with α = 0, the contention-based
	// throughput maximizer.
	SchedLifeRaft2
	// SchedJAWS1 is JAWS without job-awareness: two-level scheduling plus
	// adaptive starvation resistance.
	SchedJAWS1
	// SchedJAWS2 is full JAWS: SchedJAWS1 plus job-aware gated execution.
	SchedJAWS2
)

// CachePolicy selects the replacement algorithm (Table I).
type CachePolicy int

const (
	// PolicyLRUK is the LRU-K baseline (SQL Server's page replacement is
	// a variant of it).
	PolicyLRUK CachePolicy = iota
	// PolicySLRU is the segmented LRU with a protected segment.
	PolicySLRU
	// PolicyURC is utility-ranked caching coordinated with the scheduler.
	PolicyURC
)

// enum is what the two enums share: the name table, indexed by value, that
// String prints from, Parse* and UnmarshalText read and the CLIs' help lists.
type enum struct {
	kind, what string
	names      []string
}

var (
	schedulers    = enum{"Scheduler", "scheduler", []string{"NoShare", "LifeRaft1", "LifeRaft2", "JAWS1", "JAWS2"}}
	cachePolicies = enum{"CachePolicy", "cache policy", []string{"LRU-K", "SLRU", "URC"}}
)

// fold is the spelling a name is matched in, and listed in for a flag:
// lower case, hyphens dropped ("LRU-K", "lru-k" and "lruk" are one name).
func fold(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, "-", ""))
}

func (e enum) name(v int) string {
	if v < 0 || v >= len(e.names) {
		return fmt.Sprintf("%s(%d)", e.kind, v)
	}
	return e.names[v]
}

func (e enum) flagNames() []string {
	out := make([]string, len(e.names))
	for i, n := range e.names {
		out[i] = fold(n)
	}
	return out
}

func (e enum) parse(name string) (int, error) {
	for v, n := range e.names {
		if fold(n) == fold(name) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (have: %s)", e.what, name, strings.Join(e.flagNames(), ", "))
}

// unmarshal sets *v to the value text names, or leaves it and errors.
func (e enum) unmarshal(text []byte, v *int) error {
	parsed, err := e.parse(string(text))
	if err == nil {
		*v = parsed
	}
	return err
}

// String names the scheduler as the paper does; ParseScheduler is its
// inverse, ignoring case; SchedulerNames lists what that accepts, as a flag
// spells it. MarshalText and UnmarshalText make a *Scheduler a
// flag.TextVar value.
func (s Scheduler) String() string                { return schedulers.name(int(s)) }
func SchedulerNames() []string                    { return schedulers.flagNames() }
func (s Scheduler) MarshalText() ([]byte, error)  { return []byte(s.String()), nil }
func (s *Scheduler) UnmarshalText(b []byte) error { return schedulers.unmarshal(b, (*int)(s)) }
func ParseScheduler(name string) (Scheduler, error) {
	v, err := schedulers.parse(name)
	return Scheduler(v), err
}

// The same for CachePolicy; its names also match ignoring hyphens.
func (p CachePolicy) String() string                { return cachePolicies.name(int(p)) }
func CachePolicyNames() []string                    { return cachePolicies.flagNames() }
func (p CachePolicy) MarshalText() ([]byte, error)  { return []byte(p.String()), nil }
func (p *CachePolicy) UnmarshalText(b []byte) error { return cachePolicies.unmarshal(b, (*int)(p)) }
func ParseCachePolicy(name string) (CachePolicy, error) {
	v, err := cachePolicies.parse(name)
	return CachePolicy(v), err
}
