package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// tiny keeps daemon start-up under a second.
var tiny = []string{"-grid", "64", "-atom", "32", "-steps", "3", "-cache", "16"}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{append(tiny, "-sched", "bogus"), 2, `unknown scheduler "bogus"`},
		{append(tiny, "-nodes", "0"), 1, "at least one node"},
		{append(tiny, "-fault-spec", "bogus:nope"), 1, "fault"},
		{append(tiny, "-addr", "256.256.256.256:http"), 1, "listen"},
		{append(tiny, "-trace-out", "/nonexistent/dir/trace.jsonl"), 1, "no such file"},
	}
	for _, c := range cases {
		code, _, errb := runCLI(t, c.args...)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr: %s)", c.args, code, c.code, errb)
		}
		if !strings.Contains(errb, c.want) {
			t.Errorf("%v: stderr %q missing %q", c.args, errb, c.want)
		}
	}
}

func TestServeForDrainsCleanly(t *testing.T) {
	code, out, errb := runCLI(t, append(tiny, "-addr", "127.0.0.1:0", "-serve-for", "50ms")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"jawsd listening on http://", "draining (serve-for elapsed)", "served          0 queries"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// addrWriter tees the daemon's stdout and delivers the advertised listen
// address to the test as soon as it is printed.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

var addrRe = regexp.MustCompile(`http://(127\.0\.0\.1:\d+)`)

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := addrRe.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestDaemonSmoke boots the daemon on a free port with the full
// observability surface enabled (request tracing, structured logs, SLO
// tracking, pprof), serves a real query and the observability endpoints,
// then drains it via /quitquitquit and checks the emitted artifacts
// stitch together under the propagated request ID.
func TestDaemonSmoke(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.prom")
	tracePath := filepath.Join(dir, "trace.jsonl")
	logPath := filepath.Join(dir, "jawsd.log")
	out := &addrWriter{addr: make(chan string, 1)}
	var errb bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(append(tiny,
			"-addr", "127.0.0.1:0", "-nodes", "2", "-queue", "8", "-workers", "2",
			"-allow-quit", "-metrics-out", metricsPath,
			"-trace-out", tracePath, "-log-out", logPath,
			"-pprof", "127.0.0.1:0", "-req-seed", "7",
			"-slo-target", "5s", "-slo-objective", "0.9"), out, &errb)
	}()

	var addr string
	select {
	case addr = <-out.addr:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never printed its address; stderr: %s", errb.String())
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/query", "application/json",
		strings.NewReader(`{"step":1,"kernel":"lag4","points":[{"x":1,"y":2,"z":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"velocity"`) {
		t.Errorf("/query body %q has no computed values", body)
	}
	rid := resp.Header.Get("X-Jaws-Request-Id")
	if rid == "" {
		t.Fatal("/query response has no X-Jaws-Request-Id header")
	}

	// The pprof diagnostics listener advertises itself on stdout.
	pprofRe := regexp.MustCompile(`pprof on http://(127\.0\.0\.1:\d+)/`)
	var pprofAddr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if m := pprofRe.FindStringSubmatch(out.String()); m != nil {
			pprofAddr = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if pprofAddr == "" {
		t.Fatalf("daemon never advertised pprof:\n%s", out.String())
	}
	presp, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", presp.StatusCode)
	}

	for path, want := range map[string]string{
		"/healthz": "ok",
		"/varz":    `"queue_bound":8`,
		"/metrics": "jaws_server_served_total 1",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(b), want) {
			t.Errorf("%s body %q missing %q", path, b, want)
		}
	}

	qresp, err := http.Post(base+"/quitquitquit", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("/quitquitquit status %d", qresp.StatusCode)
	}

	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d; stderr: %s", code, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after /quitquitquit")
	}
	for _, want := range []string{
		"draining (quitquitquit)", "served          1 queries", "node 0", "node 1",
		"metrics         ->", "request spans   1 spans (1 ok)", "slo             100.00% <= 5s",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"jaws_server_served_total", "jaws_slo_compliance",
		"# HELP jaws_server_requests_total", "# HELP jaws_decisions_total",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics file missing %q", want)
		}
	}

	// The trace carries both sides of the request — the server's
	// wall-clock reqspan and the engine's virtual-clock span — stitched
	// by the same propagated ID.
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var reqSide, engineSide bool
	for _, line := range strings.Split(string(trace), "\n") {
		if strings.Contains(line, `"kind":"reqspan"`) && strings.Contains(line, rid) {
			reqSide = true
		}
		if strings.Contains(line, `"kind":"span"`) && strings.Contains(line, `"req":"`+rid+`"`) {
			engineSide = true
		}
	}
	if !reqSide || !engineSide {
		t.Errorf("trace does not stitch request %s (reqspan=%v, engine span=%v)", rid, reqSide, engineSide)
	}

	// Every structured log line is JSON and the served request's line
	// carries its ID.
	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logData), `"request_id":"`+rid+`"`) {
		t.Errorf("log file does not mention request %s:\n%s", rid, logData)
	}
}
