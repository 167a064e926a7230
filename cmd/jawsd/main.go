// Command jawsd is the production daemon: the Fig. 7 web-service front
// end over a pool of long-lived JAWS session replicas, with admission
// control, backpressure, and graceful drain (see internal/server).
//
// Usage:
//
//	jawsd                                    # defaults: :8080, 1 node
//	jawsd -addr :9000 -nodes 4 -queue 128 -workers 16
//	jawsd -fault-spec 'disk-transient:p=0.05' -metrics-out metrics.prom
//
// Endpoints: POST /query (JSON), GET /metrics, /healthz, /varz. The
// daemon drains gracefully on SIGINT/SIGTERM; with -allow-quit a POST to
// /quitquitquit does the same (used by the CI end-to-end job).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"jaws"
	"jaws/internal/obs"
	"jaws/internal/server"
	"jaws/internal/system"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the daemon: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jawsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sched := jaws.SchedJAWS2
	fs.TextVar(&sched, "sched", sched, "scheduler: "+strings.Join(jaws.SchedulerNames(), ", "))
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free one)")
		nodes       = fs.Int("nodes", 1, "session replicas serving the space (queries route round-robin)")
		queue       = fs.Int("queue", 64, "admission queue bound (full queue sheds with 429)")
		workers     = fs.Int("workers", 8, "serving slots (max queries concurrently in the engines)")
		maxInFlight = fs.Int("max-in-flight", 0, "max requests between accept and response (0: 4×(queue+workers))")
		deadline    = fs.Duration("deadline", 30*time.Second, "default per-request deadline")
		maxDeadline = fs.Duration("max-deadline", 2*time.Minute, "cap on client-requested timeout_ms")
		maxBody     = fs.Int64("max-body", 1<<20, "max /query body bytes (larger is 413)")
		maxPoints   = fs.Int("max-points", 4096, "max positions per query")
		retryAfter  = fs.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		grid        = fs.Int("grid", 128, "grid side in voxels")
		atom        = fs.Int("atom", 32, "atom side in voxels")
		steps       = fs.Int("steps", 8, "stored time steps per node")
		seed        = fs.Int64("seed", 1, "turbulence field seed (replicas share it: same data)")
		cacheAtoms  = fs.Int("cache", 64, "cache capacity in atoms per node")
		rf          = system.BindRunFlags(fs, true)
		flight      = fs.Bool("flight", false, "record scheduler decision flight records (aggregated for /varz sched and jaws_sched_* metrics, each record written to -trace-out)")
		serveFor    = fs.Duration("serve-for", 0, "drain and exit after this long (0: serve until a signal)")
		allowQuit   = fs.Bool("allow-quit", false, "serve POST /quitquitquit to trigger a graceful drain")
		logOut      = fs.String("log-out", "", "write structured JSON request logs to this file (- for stderr)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof diagnostics on this address (e.g. 127.0.0.1:6060)")
		reqSeed     = fs.Int64("req-seed", 1, "seed for deterministic X-Jaws-Request-Id derivation")
		sloTarget   = fs.Duration("slo-target", 0, "latency SLO target (0 disables SLO tracking)")
		sloObj      = fs.Float64("slo-objective", 0.99, "fraction of requests that must meet -slo-target")
		sloWindow   = fs.Duration("slo-window", time.Minute, "rolling window for SLO compliance")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	errf := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "jawsd: "+format+"\n", a...)
		return 1
	}

	if *nodes < 1 {
		return errf("need at least one node, got %d", *nodes)
	}
	spec, err := rf.Fault()
	if err != nil {
		return errf("%v", err)
	}
	o, err := rf.Obs()
	if err != nil {
		return errf("%v", err)
	}
	reg, tracer := rf.Reg, rf.Tracer
	var recorder *obs.FlightRecorder
	if *flight {
		// Decision flight records feed the recorder's aggregates (/varz)
		// and the jaws_sched_* counters, and — when -trace-out is set —
		// land in the shared JSONL trace, where jawsreport -why joins them
		// with the engine spans. The daemon keeps none of them in memory.
		recorder = obs.NewFlightRecorder(false, tracer, reg)
		o.Flight = recorder
	}
	var logger *obs.Logger
	if *logOut != "" {
		w := io.Writer(stderr)
		if *logOut != "-" {
			f, err := os.Create(*logOut)
			if err != nil {
				return errf("%v", err)
			}
			defer f.Close()
			w = f
		}
		logger = obs.NewLogger(w)
	}
	slo := obs.NewSLOTracker(*sloTarget, *sloObj, *sloWindow)

	backends := make([]server.Backend, *nodes)
	for i := range backends {
		sess, err := jaws.OpenSession(jaws.Config{
			Space:      jaws.Space{GridSide: *grid, AtomSide: *atom},
			Steps:      *steps,
			Seed:       *seed, // shared: every replica serves the same field
			Scheduler:  sched,
			TailPolicy: rf.TailPolicy,
			CacheAtoms: *cacheAtoms,
			Compute:    true,
			Obs:        o,
			Node:       i, // labels its flight records, is its '@node', mixes into its fault stream
			Fault:      spec,
			FaultSeed:  rf.FaultSeed,
		})
		if err != nil {
			return errf("node %d: %v", i, err)
		}
		backends[i] = sess
	}

	srv, err := server.New(server.Config{
		Backends:        backends,
		Reg:             reg,
		QueueBound:      *queue,
		Workers:         *workers,
		MaxInFlight:     *maxInFlight,
		MaxBodyBytes:    *maxBody,
		MaxPoints:       *maxPoints,
		Steps:           *steps,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		RetryAfter:      *retryAfter,
		Trace:           tracer,
		Log:             logger,
		SLO:             slo,
		ReqIDSeed:       *reqSeed,
		Flight:          recorder,
		TailPolicy:      rf.TailPolicy,
	})
	if err != nil {
		return errf("%v", err)
	}

	// A drain can be requested by a signal, the -serve-for timer, or the
	// /quitquitquit endpoint; whichever fires first wins.
	stop := make(chan string, 1)
	var stopOnce sync.Once
	requestStop := func(why string) { stopOnce.Do(func() { stop <- why }) }
	// Caught from before the address is printed: whoever read the address
	// and signals drains the daemon rather than killing it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	// One handler: /quitquitquit (under -allow-quit) is answered here and
	// every other path goes straight to the server's own mux.
	api := srv.Handler()
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !*allowQuit || r.URL.Path != "/quitquitquit" {
			api.ServeHTTP(w, r)
			return
		}
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		fmt.Fprintln(w, "draining")
		requestStop("quitquitquit")
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return errf("%v", err)
	}
	fmt.Fprintf(stdout, "jawsd listening on http://%s (nodes=%d queue=%d workers=%d deadline=%v sched=%v)\n",
		ln.Addr(), *nodes, *queue, *workers, *deadline, sched)

	// Diagnostics listener, printed after the serving address so scripts
	// watching stdout see the service endpoint first.
	if *pprofAddr != "" {
		pprofSrv, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return errf("pprof: %v", err)
		}
		defer pprofSrv.Close()
		fmt.Fprintf(stdout, "pprof on http://%s/debug/pprof/\n", pprofSrv.Addr())
	}

	httpSrv := &http.Server{Handler: root}
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			httpErr <- err
		}
	}()

	var timerC <-chan time.Time
	if *serveFor > 0 {
		timerC = time.After(*serveFor)
	}
	var why string
	select {
	case sig := <-sigc:
		why = sig.String()
	case <-timerC:
		why = "serve-for elapsed"
	case why = <-stop:
	case err := <-httpErr:
		return errf("serve: %v", err)
	}

	fmt.Fprintf(stdout, "draining (%s)...\n", why)
	reports := srv.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return errf("http shutdown: %v", err)
	}

	st := srv.Stats()
	fmt.Fprintf(stdout, "served          %d queries (%d requests, %d shed, %d timeouts, %d errors)\n",
		st.Served, st.Requests, st.Shed, st.Timeouts, st.Errors)
	for i, rep := range reports {
		fmt.Fprintf(stdout, "node %d          %d completed, %.1f virtual s, cache hit %.1f%%\n",
			i, rep.Completed, rep.Elapsed.Seconds(), rep.CacheStats.HitRatio()*100)
	}
	if slo != nil {
		snap := slo.Snapshot()
		fmt.Fprintf(stdout, "slo             %.2f%% <= %v (objective %.2f%%, burn %.2f, budget %.0f%%)\n",
			snap.Compliance*100, snap.Target, snap.Objective*100, snap.BurnRate, snap.BudgetRemaining*100)
	}
	if recorder != nil {
		snap := recorder.Snapshot()
		fmt.Fprintf(stdout, "flight          %d decisions (%d atoms chosen; pass-overs: %d batch-full, %d lost-race, %d aged-in; %d gated rounds)\n",
			snap.Decisions, snap.ChosenAtoms, snap.PassBatchFull, snap.PassLostRace, snap.PassAgedIn, snap.GatedEdgeRounds)
	}
	if err := rf.Finish(stdout, stdout); err != nil {
		return errf("%v", err)
	}
	return 0
}
