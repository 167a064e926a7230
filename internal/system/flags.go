package system

import (
	"flag"
	"fmt"
	"io"
	"os"

	"jaws/internal/fault"
	"jaws/internal/obs"
	"jaws/internal/sched"
)

// RunFlags is the part of a node description the binaries that run one
// (jaws, jawsbench, jawsd) take from the command line: the tail policy,
// where the decision trace goes, whether the metrics registry is shown,
// and the fault schedule. Bind before fs.Parse; Fault and Obs after it;
// Finish once the run is over.
type RunFlags struct {
	traceOut, metricsOut, faultSpec string
	metrics                         bool
	// TailPolicy is -tail-policy (Config.TailPolicy), a spec that
	// sched.ParsePolicySpec accepted at parse time; empty means none.
	TailPolicy string
	// FaultSeed is -fault-seed: with the node index it fixes every
	// injector's stream (Config.FaultSeed).
	FaultSeed int64
	// Tracer and Reg are what Obs built: nil without -trace-out, and
	// without -metrics on a binary that is not a daemon.
	Tracer *obs.Tracer
	Reg    *obs.Registry
}

// BindRunFlags declares -tail-policy, -trace-out, -fault-spec,
// -fault-seed and the metrics flag on fs. A bad -tail-policy spec fails
// fs.Parse, a usage error. A daemon serves its registry, so it always has
// one and writes it to a file on exit (-metrics-out); the batch binaries
// print theirs after the run (-metrics).
func BindRunFlags(fs *flag.FlagSet, daemon bool) *RunFlags {
	f := &RunFlags{}
	fs.Func("tail-policy", "tail-policy spec decorating every JAWS scheduler the binary runs, e.g. 'gate-aware;adaptive-batch:min=4,max=32' (DESIGN.md §18); empty means undecorated", func(spec string) error {
		if _, err := sched.ParsePolicySpec(spec); err != nil {
			return err
		}
		f.TailPolicy = spec
		return nil
	})
	fs.StringVar(&f.traceOut, "trace-out", "", "write a JSONL decision trace of every engine to this file (read it with jawsreport)")
	fs.StringVar(&f.faultSpec, "fault-spec", "", "deterministic fault schedule for every engine, e.g. 'disk-transient:p=0.05;disk-slow:p=0.1,extra=50ms' (see internal/fault)")
	fs.Int64Var(&f.FaultSeed, "fault-seed", 1, "seed for the fault injector (same spec, seed and node replay identically; each node derives its own stream)")
	if daemon {
		f.Reg = obs.NewRegistry()
		fs.StringVar(&f.metricsOut, "metrics-out", "", "write the metrics registry (Prometheus text) to this file on exit")
	} else {
		fs.BoolVar(&f.metrics, "metrics", false, "print the metrics registry in Prometheus text format after the run")
	}
	return f
}

// Fault parses -fault-spec; the empty flag is the empty (disabled) spec.
func (f *RunFlags) Fault() (fault.Spec, error) { return fault.ParseSpec(f.faultSpec) }

// Obs creates the trace file and the registry the flags ask for and
// returns them bundled, nil when they ask for neither.
func (f *RunFlags) Obs() (*obs.Obs, error) {
	if f.metrics {
		f.Reg = obs.NewRegistry()
	}
	if f.traceOut != "" {
		file, err := os.Create(f.traceOut)
		if err != nil {
			return nil, err
		}
		f.Tracer = obs.NewTracer(file)
	}
	if f.Tracer == nil && f.Reg == nil {
		return nil, nil
	}
	return &obs.Obs{Trace: f.Tracer, Reg: f.Reg}, nil
}

// Finish is the epilogue of a run: it closes the trace and says where it
// went on status, then prints the registry on dump (-metrics) or writes it
// to its file (-metrics-out, named on status).
func (f *RunFlags) Finish(status, dump io.Writer) error {
	if f.Tracer != nil {
		if err := f.Tracer.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(status, "trace           %d events -> %s\n", f.Tracer.Total(), f.traceOut)
		// The metrics agree with the closed trace.
		obs.FoldTraceDropped(f.Reg, f.Tracer)
	}
	if f.metrics {
		fmt.Fprintln(dump)
		if err := f.Reg.WriteText(dump); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if f.metricsOut != "" {
		file, err := os.Create(f.metricsOut)
		if err != nil {
			return err
		}
		if err := f.Reg.WriteText(file); err != nil {
			file.Close()
			return fmt.Errorf("metrics: %w", err)
		}
		if err := file.Close(); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Fprintf(status, "metrics         -> %s\n", f.metricsOut)
	}
	return nil
}
