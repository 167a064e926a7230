package fault

import (
	"strings"
	"testing"
	"time"
)

func TestParseSpecBasics(t *testing.T) {
	spec, err := ParseSpec("disk-transient:p=0.05,until=30s; crash@1:at=5s ;disk-slow:p=0.1,extra=50ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(spec.Rules))
	}
	r := spec.Rules[0]
	if r.Kind != DiskTransient || r.P != 0.05 || r.Until != 30*time.Second || r.Node != -1 {
		t.Fatalf("bad transient rule: %+v", r)
	}
	r = spec.Rules[1]
	if r.Kind != Crash || r.Node != 1 || r.At != 5*time.Second {
		t.Fatalf("bad crash rule: %+v", r)
	}
	r = spec.Rules[2]
	if r.Kind != DiskSlow || r.Extra != 50*time.Millisecond {
		t.Fatalf("bad slow rule: %+v", r)
	}
}

func TestParseSpecEmpty(t *testing.T) {
	for _, s := range []string{"", "  ", ";", " ; "} {
		spec, err := ParseSpec(s)
		if err != nil || !spec.Empty() {
			t.Fatalf("ParseSpec(%q) = %+v, %v; want empty, nil", s, spec, err)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := map[string]string{
		"frobnicate:p=0.5":                "unknown fault kind",
		"disk-transient":                  "needs p",
		"disk-transient:p=0":              "needs p",
		"disk-transient:p=1.5":            "needs p",
		"disk-transient:p=0.5,at=3s":      "does not take at",
		"crash:p=0.5,at=1s":               "does not take p",
		"crash":                           "needs at",
		"crash@x:at=1s":                   "bad node",
		"crash@-2:at=1s":                  "bad node",
		"disk-slow:p=0.5":                 "needs extra",
		"corrupt:p=0.5,p=0.6":             "duplicate parameter",
		"corrupt:p":                       "not key=value",
		"corrupt:p=0.5,zap=1":             "unknown parameter",
		"corrupt:p=0.5,after=2s,until=1s": "empty window",
		"crash:at=-1s":                    "negative duration",
		"crash:at=bogus":                  "parameter at",
	}
	for in, want := range bad {
		_, err := ParseSpec(in)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseSpec(%q) = %v, want mention of %q", in, err, want)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	in := "disk-transient:p=0.05,after=1s,until=30s,extra=2ms;disk-permanent@3:p=0.001;crash@1:at=5s;corrupt:p=0.01;disk-slow:p=0.1,extra=50ms"
	spec, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", spec.String(), err)
	}
	if len(again.Rules) != len(spec.Rules) {
		t.Fatalf("round trip lost rules: %q", spec.String())
	}
	for i := range spec.Rules {
		if again.Rules[i] != spec.Rules[i] {
			t.Fatalf("rule %d changed: %+v vs %+v", i, spec.Rules[i], again.Rules[i])
		}
	}
}
