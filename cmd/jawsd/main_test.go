package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"jaws/internal/obs"
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
		{append(tiny, "-tail-policy", "bogus"), 2, `invalid value "bogus" for flag -tail-policy`},
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

// boot runs the daemon with tiny's store and args on a goroutine and
// returns once it printed its address: its base URL, its stdout, and the
// channel its exit code arrives on.
func boot(t *testing.T, args ...string) (base string, out *addrWriter, errb *bytes.Buffer, exit <-chan int) {
	t.Helper()
	out = &addrWriter{addr: make(chan string, 1)}
	errb = new(bytes.Buffer)
	code := make(chan int, 1)
	go func() { code <- run(append(append([]string(nil), tiny...), args...), out, errb) }()
	select {
	case addr := <-out.addr:
		return "http://" + addr, out, errb, code
	case c := <-code:
		t.Fatalf("daemon exited %d before printing its address; stderr: %s", c, errb.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never printed its address; stderr: %s", errb.String())
	}
	return
}

// TestRoutes pins what every path answers, with and without -allow-quit:
// /quitquitquit is POST-only and exists only when allowed, the server's
// endpoints all answer beside it, and any other path is a 404.
func TestRoutes(t *testing.T) {
	for _, allowQuit := range []bool{true, false} {
		t.Run(fmt.Sprintf("allow-quit=%v", allowQuit), func(t *testing.T) {
			args := []string{"-addr", "127.0.0.1:0"}
			if allowQuit {
				args = append(args, "-allow-quit")
			}
			base, out, errb, exit := boot(t, args...)
			call := func(method, path, body string) (*http.Response, string) {
				t.Helper()
				req, err := http.NewRequest(method, base+path, strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				return resp, string(b)
			}
			for _, c := range []struct {
				method, path, body string
				want               int
			}{
				{http.MethodPost, "/query", `{"step":1,"points":[{"x":1,"y":2,"z":3}]}`, http.StatusOK},
				{http.MethodGet, "/healthz", "", http.StatusOK},
				{http.MethodGet, "/varz", "", http.StatusOK},
				{http.MethodGet, "/metrics", "", http.StatusOK},
				{http.MethodGet, "/no-such-path", "", http.StatusNotFound},
				{http.MethodGet, "/quitquitquit/", "", http.StatusNotFound},
			} {
				if resp, body := call(c.method, c.path, c.body); resp.StatusCode != c.want {
					t.Errorf("%s %s: status %d, want %d (%q)", c.method, c.path, resp.StatusCode, c.want, body)
				}
			}

			resp, _ := call(http.MethodGet, "/quitquitquit", "")
			why := "draining (interrupt)"
			if allowQuit {
				if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
					t.Errorf("GET /quitquitquit: status %d, Allow %q; want 405 and POST", resp.StatusCode, resp.Header.Get("Allow"))
				}
				resp, body := call(http.MethodPost, "/quitquitquit", "")
				if resp.StatusCode != http.StatusOK || body != "draining\n" {
					t.Errorf("POST /quitquitquit: status %d, body %q; want 200 and draining", resp.StatusCode, body)
				}
				why = "draining (quitquitquit)"
			} else {
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("GET /quitquitquit without -allow-quit: status %d, want 404", resp.StatusCode)
				}
				if resp, _ := call(http.MethodPost, "/quitquitquit", ""); resp.StatusCode != http.StatusNotFound {
					t.Errorf("POST /quitquitquit without -allow-quit: status %d, want 404", resp.StatusCode)
				}
				// No endpoint stops this daemon: a signal does, as it
				// would a deployed one.
				if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
					t.Fatal(err)
				}
			}

			select {
			case code := <-exit:
				if code != 0 {
					t.Fatalf("daemon exited %d; stderr: %s", code, errb.String())
				}
			case <-time.After(10 * time.Second):
				t.Fatal("daemon did not drain")
			}
			if !strings.Contains(out.String(), why) || !strings.Contains(out.String(), "served          1 queries") {
				t.Errorf("output missing %q or one served query:\n%s", why, out.String())
			}
		})
	}
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
	base, out, errb, exit := boot(t,
		"-addr", "127.0.0.1:0", "-nodes", "2", "-queue", "8", "-workers", "2",
		"-allow-quit", "-metrics-out", metricsPath,
		"-trace-out", tracePath, "-log-out", logPath,
		"-pprof", "127.0.0.1:0", "-req-seed", "7",
		"-slo-target", "5s", "-slo-objective", "0.9")

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
		"metrics         ->", "slo             100.00% <= 5s",
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
	// by the same propagated ID; its request spans summarize to the one
	// served request.
	trace, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer trace.Close()
	var reqSpans []obs.ReqSpan
	var engineSide bool
	err = obs.ScanTrace(trace, func(ev *obs.Event) error {
		switch {
		case ev.Kind == obs.KindReqSpan:
			reqSpans = append(reqSpans, *ev.Req)
		case ev.Kind == obs.KindSpan && ev.Span.Req == rid:
			engineSide = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum := obs.SummarizeReqSpans(reqSpans, 0); sum.Count != 1 || sum.OK != 1 || reqSpans[0].ID != rid {
		t.Errorf("trace request spans: %d (%d ok), want the 1 served request %s", sum.Count, sum.OK, rid)
	}
	if !engineSide {
		t.Errorf("trace does not stitch request %s to an engine span", rid)
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
