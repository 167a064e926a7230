package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServePprof boots the diagnostics listener on a free port, fetches
// the index, and shuts it down.
func TestServePprof(t *testing.T) {
	p, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	resp, err := http.Get("http://" + p.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("index body does not look like pprof: %.120s", body)
	}

	// The public root must not exist: diagnostics only.
	resp, err = http.Get("http://" + p.Addr() + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/query on the pprof listener answered %d, want 404", resp.StatusCode)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var nilP *PprofServer
	if err := nilP.Close(); err != nil {
		t.Fatal("nil Close must be a no-op")
	}
}

// TestRegistryHelpExposition checks # HELP lines precede # TYPE for
// described metrics and are escaped.
func TestRegistryHelpExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("jaws_x_total").Inc()
	r.Describe("jaws_x_total", "Things that\nhappened\\here.")
	r.Gauge("jaws_g").Set(1)
	h := r.Histogram("jaws_h", 1, 2)
	h.Observe(1)
	r.Describe("jaws_h", "A histogram.")

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP jaws_x_total Things that\nhappened\\here.`) {
		t.Fatalf("counter help missing or unescaped:\n%s", out)
	}
	if !strings.Contains(out, "# HELP jaws_h A histogram.\n# TYPE jaws_h histogram") {
		t.Fatalf("histogram help must precede its type line:\n%s", out)
	}
	if strings.Contains(out, "# HELP jaws_g") {
		t.Fatalf("undescribed gauge grew a help line:\n%s", out)
	}
}
