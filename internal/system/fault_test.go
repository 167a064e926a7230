package system_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"jaws/internal/engine"
	"jaws/internal/fault"
	"jaws/internal/obs"
	"jaws/internal/system"
	"jaws/internal/workload"
)

// faultySpec fails reads (retried) and stretches them, and corrupts cache
// hits, often enough that a prefetch read draws an error too.
const faultySpec = "disk-transient:p=0.15,extra=1ms;disk-slow:p=0.15,extra=3ms;corrupt:p=0.1"

// faultyRun runs a seeded ordered-job trace with prefetching on a 16-atom
// cache under the fault spec, observed through o (nil for none).
func faultyRun(t *testing.T, spec string, o *obs.Obs) (*engine.Report, error) {
	t.Helper()
	fs, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(system.SchedJAWS2)
	cfg.Prefetch, cfg.Fault, cfg.FaultSeed, cfg.Obs = true, fs, 11, o
	sys, err := system.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Generate(workload.Config{
		Seed: 5, Space: cfg.Space, Steps: cfg.Steps, Jobs: 64, PointsPerQuery: 6,
		OrderedFrac: 0.9, MeanJobGap: 200 * time.Millisecond, ThinkTime: 2 * time.Second, QueryScale: 200,
	})
	return sys.Run(wl.Jobs)
}

// TestFaultyRunPinned holds a faulty run to figures recorded before the
// injector was consulted at the engine's read sites, when it was reached
// through hooks on the disk, the store and the cache: the draws happen at
// the same operations in the same order, so every count and the virtual
// time replay exactly. The run's metrics say what its report says. A
// permanent fault aborts the run at the same read and the same instant.
func TestFaultyRunPinned(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := faultyRun(t, faultySpec, &obs.Obs{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	c, d := rep.CacheStats, rep.DiskStats
	got := fmt.Sprintf("completed=%d elapsed=%v retries=%d prefetched=%d faults=%+v cache=%d/%d/%d/%d disk=%d/%d/%d",
		rep.Completed, rep.Elapsed, rep.Retries, rep.PrefetchedAtoms, rep.Faults,
		c.Hits, c.Misses, c.Evictions, c.Corruptions, d.Reads, d.SeqReads, d.Bytes)
	const want = "completed=134 elapsed=14.10381728s retries=24 prefetched=2 " +
		"faults={Transient:25 Permanent:0 Slow:14 Corrupt:14} cache=114/116/88/14 disk=118/4/989855744"
	if got != want {
		t.Errorf("faulty run:\n got %s\nwant %s", got, want)
	}
	for name, want := range map[string]int64{
		"jaws_fault_retries_total":     rep.Retries,
		"jaws_fault_corruptions_total": rep.Faults.Corrupt, // = c.Corruptions, pinned above
		"jaws_cache_misses_total":      c.Misses,
		"jaws_disk_reads_total":        d.Reads,
		"jaws_prefetch_atoms_total":    rep.PrefetchedAtoms,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, the report says %d", name, got, want)
		}
	}

	var sink bytes.Buffer
	tr := obs.NewTracer(&sink)
	_, err = faultyRun(t, "disk-permanent:p=0.05,after=2s", &obs.Obs{Trace: tr})
	var abort time.Duration
	if serr := errors.Join(tr.Close(), obs.ScanTrace(&sink, func(ev *obs.Event) error {
		if ev.Kind == obs.KindFaultAbort {
			abort = ev.T
		}
		return nil
	})); serr != nil {
		t.Fatal(serr)
	}
	const prefix = "engine: read failed after 1 attempt(s): store: atom t3/atom(3,1,3): "
	if !errors.Is(err, fault.ErrDiskPermanent) || !strings.HasPrefix(fmt.Sprint(err), prefix) || abort != 2870459443 {
		t.Errorf("permanent fault: %v at %v, want %s… at 2.870459443s", err, abort, prefix)
	}
}
