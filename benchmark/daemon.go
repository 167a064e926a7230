package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The configuration every serve workload boots jawsd with; only the traffic
// differs between them. The values are part of the benchmark's definition:
// changing one is a benchmark change. The verifier's store and the traced
// run's in-process assembly read the same constants.
const (
	daemonGrid    = 128
	daemonAtom    = 32
	daemonSteps   = 8
	daemonCache   = 256
	daemonQueue   = 64
	daemonWorkers = 8
	daemonSeed    = 1
)

// daemonFlags spells the configuration as jawsd's command line.
func daemonFlags() []string {
	n := strconv.Itoa
	return []string{
		"-addr", "127.0.0.1:0", "-nodes", "1",
		"-grid", n(daemonGrid), "-atom", n(daemonAtom), "-steps", n(daemonSteps),
		"-cache", n(daemonCache), "-queue", n(daemonQueue), "-workers", n(daemonWorkers),
		"-sched", "jaws2", "-seed", n(daemonSeed),
		"-pprof", "127.0.0.1:0", "-allow-quit",
	}
}

// daemon is one jawsd subprocess under test.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://host:port of the query listener
	pprof string // http://host:port of the diagnostics listener
	hc    *http.Client

	mu   sync.Mutex
	out  bytes.Buffer  // everything the daemon printed
	done chan struct{} // closes when the output reader hit EOF
}

var (
	listenRe = regexp.MustCompile(`jawsd listening on (http://[^ ]+)`)
	pprofRe  = regexp.MustCompile(`pprof on (http://[^/ ]+)/debug/pprof/`)
	servedRe = regexp.MustCompile(`served\s+(\d+) queries \((\d+) requests, (\d+) shed, (\d+) timeouts, (\d+) errors\)`)
)

// startDaemon boots bin with the benchmark's flags plus extra, and returns
// once /healthz answers 200.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	d := &daemon{
		cmd:  exec.Command(bin, append(daemonFlags(), extra...)...),
		hc:   &http.Client{Timeout: 30 * time.Second},
		done: make(chan struct{}),
	}
	// The daemon must not outlive a harness that is killed mid-run.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.cmd.Stderr = d.cmd.Stdout
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.done)
		var base, pp string
		announced := false
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.out.WriteString(line)
			d.out.WriteByte('\n')
			d.mu.Unlock()
			if m := listenRe.FindStringSubmatch(line); m != nil {
				base = m[1]
			}
			if m := pprofRe.FindStringSubmatch(line); m != nil {
				pp = m[1]
			}
			if base != "" && pp != "" && !announced {
				addrs <- [2]string{base, pp} // buffered: never blocks
				announced = true
			}
		}
	}()
	select {
	case a := <-addrs:
		d.base, d.pprof = a[0], a[1]
	case <-d.done:
		_ = d.cmd.Wait()
		return nil, fmt.Errorf("jawsd exited during start-up:\n%s", d.output())
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("jawsd printed no listen address within 20s:\n%s", d.output())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.hc.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("jawsd /healthz not 200 within 10s (last error: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.out.String()
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	_ = d.cmd.Wait()
}

// drainSummary is the request accounting jawsd prints when it drains.
type drainSummary struct {
	Served, Requests, Shed, Timeouts, Errors int64
}

// stop drains the daemon through /quitquitquit, waits for it to exit and
// returns the accounting it printed. A daemon that does not exit cleanly
// within 20 s is killed and reported.
func (d *daemon) stop() (drainSummary, error) {
	var sum drainSummary
	resp, err := d.hc.Post(d.base+"/quitquitquit", "text/plain", nil)
	if err != nil {
		d.kill()
		return sum, fmt.Errorf("quit jawsd: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.kill()
		return sum, errors.New("jawsd did not drain within 20s")
	}
	if err := d.cmd.Wait(); err != nil {
		return sum, fmt.Errorf("jawsd exit: %w\n%s", err, d.output())
	}
	m := servedRe.FindStringSubmatch(d.output())
	if m == nil {
		return sum, fmt.Errorf("jawsd printed no drain summary:\n%s", d.output())
	}
	for i, p := range []*int64{&sum.Served, &sum.Requests, &sum.Shed, &sum.Timeouts, &sum.Errors} {
		*p, _ = strconv.ParseInt(m[i+1], 10, 64) // the pattern admits digits only
	}
	return sum, nil
}

func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

// mem scrapes the daemon's runtime.MemStats from the heap profile's text
// form on the diagnostics listener; gc forces a collection first.
func (d *daemon) mem(gc bool) (memCounters, error) {
	url := d.pprof + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	var mc memCounters
	resp, err := d.hc.Get(url)
	if err != nil {
		return mc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return mc, fmt.Errorf("heap scrape: status %d", resp.StatusCode)
	}
	want := map[string]*uint64{"Mallocs": &mc.Mallocs, "TotalAlloc": &mc.TotalAlloc, "HeapAlloc": &mc.HeapAlloc}
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "# ")
		if !ok {
			continue
		}
		k, v, ok := strings.Cut(rest, " = ")
		if !ok {
			continue
		}
		if p := want[k]; p != nil {
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return mc, fmt.Errorf("heap scrape: %s = %q", k, v)
			}
			*p = n
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return mc, err
	}
	if found != len(want) {
		return mc, fmt.Errorf("heap scrape: found %d of %d MemStats fields", found, len(want))
	}
	return mc, nil
}
