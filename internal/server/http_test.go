package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jaws"
	"jaws/internal/query"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// validationCases is the request-validation table; FuzzDecodeQuery seeds
// its corpus from the bodies.
var validationCases = []struct {
	name   string
	method string
	body   string
	code   int
	want   string // substring of the error body
}{
	{"malformed JSON", "POST", `{"step":`, http.StatusBadRequest, "malformed request"},
	{"not JSON at all", "POST", `hello`, http.StatusBadRequest, "malformed request"},
	{"unknown field", "POST", `{"step":1,"points":[{"x":1,"y":2,"z":3}],"frobnicate":true}`, http.StatusBadRequest, "unknown field"},
	{"unknown kernel", "POST", `{"step":1,"kernel":"spline","points":[{"x":1,"y":2,"z":3}]}`, http.StatusBadRequest, `unknown kernel "spline"`},
	{"negative step", "POST", `{"step":-1,"points":[{"x":1,"y":2,"z":3}]}`, http.StatusBadRequest, "outside [0, 4)"},
	{"step past store", "POST", `{"step":4,"points":[{"x":1,"y":2,"z":3}]}`, http.StatusBadRequest, "outside [0, 4)"},
	{"no points", "POST", `{"step":1,"points":[]}`, http.StatusBadRequest, "no points"},
	{"too many points", "POST", `{"step":1,"points":[{"x":1},{"x":2},{"x":3}]}`, http.StatusBadRequest, "exceed the limit of 2"},
	{"deriv_steps of one", "POST", `{"step":1,"deriv_steps":1,"points":[{"x":1,"y":2,"z":3}]}`, http.StatusBadRequest, "deriv_steps 1 invalid"},
	{"deriv_steps negative", "POST", `{"step":1,"deriv_steps":-2,"points":[{"x":1,"y":2,"z":3}]}`, http.StatusBadRequest, "deriv_steps -2 invalid"},
	{"deriv_steps too long", "POST", `{"step":0,"deriv_steps":9,"points":[{"x":1,"y":2,"z":3}]}`, http.StatusBadRequest, "deriv_steps 9 invalid"},
	{"deriv chain past store", "POST", `{"step":3,"deriv_steps":2,"points":[{"x":1,"y":2,"z":3}]}`, http.StatusBadRequest, "derivative chain [3, 5) exceeds the stored 4 steps"},
	{"oversized body", "POST", `{"step":1,"points":[` + strings.Repeat(`{"x":1.234567,"y":2.345678,"z":3.456789},`, 20) + `{"x":1}]}`, http.StatusRequestEntityTooLarge, "exceeds 256 bytes"},
	{"GET not allowed", "GET", "", http.StatusMethodNotAllowed, "POST only"},
	{"duplicate key", "POST", `{"step":1,"step":2,"points":[{"x":1,"y":2,"z":3}]}`, http.StatusBadRequest, `duplicate field "step"`},
	{"duplicate key by case", "POST", `{"step":1,"points":[{"x":1,"X":2}]}`, http.StatusBadRequest, `duplicate field "X"`},
	{"data after the request", "POST", okBody + ` {}`, http.StatusBadRequest, "after the request object"},
	{"padding past the limit", "POST", okBody + strings.Repeat(" ", 256), http.StatusRequestEntityTooLarge, "exceeds 256 bytes"},
}

// TestQueryValidation is the table-driven request-validation suite: every
// malformed request is rejected before it can reach a backend.
func TestQueryValidation(t *testing.T) {
	fake := newFakeBackend()
	srv, ts := newTestServer(t, []Backend{fake}, func(c *Config) {
		c.MaxBodyBytes = 256
		c.MaxPoints = 2
	})

	for _, c := range validationCases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+"/query", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != c.code {
				t.Fatalf("status %d, want %d (body %q)", resp.StatusCode, c.code, body)
			}
			if !strings.Contains(string(body), c.want) {
				t.Errorf("body %q missing %q", body, c.want)
			}
		})
	}
	if n := fake.submittedCount(); n != 0 {
		t.Errorf("%d invalid requests reached the backend", n)
	}
	if st := srv.Stats(); st.Served != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestQueryGoldenHappyPath drives a real seeded session (kernels
// evaluated for real) and pins the exact response bytes: the virtual
// engine is deterministic, so the served payload is too.
func TestQueryGoldenHappyPath(t *testing.T) {
	sess, err := jaws.OpenSession(jaws.Config{
		Space:      jaws.Space{GridSide: 64, AtomSide: 32},
		Steps:      4,
		Seed:       11,
		Scheduler:  jaws.SchedJAWS2,
		CacheAtoms: 16,
		Compute:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, []Backend{sess}, nil)

	body := `{"step":1,"kernel":"lag8","points":[{"x":1.0,"y":2.0,"z":3.0},{"x":1.1,"y":2.0,"z":3.0},{"x":1.2,"y":2.0,"z":3.0}]}`
	resp := postQuery(t, ts.URL, body)
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}

	golden := filepath.Join("testdata", "query_ok.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response differs from golden file:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestQueryDerivativeServed drives a derivative request through a real
// session: the engine fans the chain out into per-step sub-queries and
// finite-differences them, and the served values must match a by-hand
// chain of plain queries at the same points combined with the Fornberg
// stencil.
func TestQueryDerivativeServed(t *testing.T) {
	sess, err := jaws.OpenSession(jaws.Config{
		Space:      jaws.Space{GridSide: 64, AtomSide: 32},
		Steps:      4,
		Seed:       11,
		Scheduler:  jaws.SchedJAWS2,
		CacheAtoms: 16,
		Compute:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, []Backend{sess}, nil)

	points := `[{"x":1.0,"y":2.0,"z":3.0},{"x":1.1,"y":2.0,"z":3.0}]`
	const k = 3
	resp := postQuery(t, ts.URL, `{"step":1,"deriv_steps":3,"kernel":"lag8","points":`+points+`}`)
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("derivative request rejected: %d %s", resp.StatusCode, raw)
	}
	var deriv QueryResponse
	if err := json.Unmarshal(raw, &deriv); err != nil {
		t.Fatal(err)
	}
	if len(deriv.Values) != 2 {
		t.Fatalf("derivative response carries %d values, want 2", len(deriv.Values))
	}

	// Reference: the same chain assembled from plain per-step queries.
	perStep := make([]QueryResponse, k)
	for i := 0; i < k; i++ {
		r := postQuery(t, ts.URL, fmt.Sprintf(`{"step":%d,"kernel":"lag8","points":%s}`, 1+i, points))
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("plain step %d rejected: %d %s", 1+i, r.StatusCode, body)
		}
		if err := json.Unmarshal(body, &perStep[i]); err != nil {
			t.Fatal(err)
		}
	}
	w := query.DerivWeights(k)
	for pi, got := range deriv.Values {
		for c := 0; c < 3; c++ {
			var want float64
			for i := 0; i < k; i++ {
				want += w[i] * perStep[i].Values[pi].Velocity[c]
			}
			want /= query.StepDT
			if diff := got.Velocity[c] - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("point %d velocity[%d] = %v, want %v", pi, c, got.Velocity[c], want)
			}
		}
	}
}
