package system_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"jaws/internal/engine"
	"jaws/internal/experiments"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
	"jaws/internal/system"
)

var testCost = sched.CostModel{Tb: 40 * time.Millisecond, Tm: 20 * time.Microsecond}

// smallConfig is a tiny node: 64 atoms per step over 4 steps.
func smallConfig(s system.Scheduler) system.Config {
	return system.Config{
		Space:      geom.Space{GridSide: 128, AtomSide: 32},
		Steps:      4,
		SampleSide: 4,
		Scheduler:  s,
		BatchSize:  5,
		CacheAtoms: 16,
		Cost:       testCost,
	}
}

func TestOpenDefaults(t *testing.T) {
	got := system.Config{}.WithDefaults()
	want := system.Config{
		Space:         geom.Space{GridSide: 256, AtomSide: 32},
		Steps:         31,
		CacheAtoms:    256,
		ProtectedFrac: 0.05,
		BatchSize:     15,
		InitialAlpha:  0.5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("defaults:\n got  %+v\n want %+v", got, want)
	}
	// AlphaSet makes a zero α deliberate; everything set survives.
	set := system.Config{
		Space: geom.Space{GridSide: 128, AtomSide: 32}, Steps: 4, CacheAtoms: 16,
		ProtectedFrac: 0.2, BatchSize: 5, AlphaSet: true,
	}
	if got := set.WithDefaults(); !reflect.DeepEqual(got, set) {
		t.Fatalf("set fields overwritten:\n got  %+v\n want %+v", got, set)
	}
	// Open builds what the defaulted description says.
	sys, err := system.Open(system.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Store()
	_, _, last := st.Read(store.AtomID{Step: 30})
	_, _, past := st.Read(store.AtomID{Step: 31})
	if last != nil || past == nil || st.Space() != want.Space {
		t.Fatalf("default store: step 30 reads %v, step 31 reads %v, over %+v; want 31 steps", last, past, st.Space())
	}
	c := sys.Cache()
	if pol, err := system.ParseCachePolicy(c.Policy().Name()); c.Capacity() != 256 || err != nil || pol != system.PolicyLRUK {
		t.Fatalf("default cache: %d atoms under %s", c.Capacity(), c.Policy().Name())
	}
}

func TestOpenRejectsBadDescriptions(t *testing.T) {
	cfg := smallConfig(system.SchedJAWS2)
	cfg.Policy = system.CachePolicy(99)
	if _, err := system.Open(cfg); err == nil || !strings.Contains(err.Error(), "unknown cache policy") {
		t.Fatalf("unknown policy: %v", err)
	}
	cfg = smallConfig(system.SchedJAWS2)
	cfg.TailPolicy = "no-such-clause"
	if _, err := system.Open(cfg); err == nil {
		t.Fatal("malformed tail policy accepted")
	}
	cfg = smallConfig(system.SchedLifeRaft2)
	cfg.TailPolicy = "gate-aware"
	if _, err := system.Open(cfg); err == nil || !strings.Contains(err.Error(), "requires a JAWS scheduler") {
		t.Fatalf("tail policy on LifeRaft: %v", err)
	}
	cfg = smallConfig(system.SchedJAWS2)
	cfg.Steps = -1
	if _, err := system.Open(cfg); err == nil {
		t.Fatal("negative step count accepted")
	}
}

// oneQueryJob is a lone query of n points inside the first atom of step 0.
func oneQueryJob(n int) *job.Job {
	pts := make([]geom.Position, n)
	for i := range pts {
		pts[i] = geom.Position{X: 0.1 + 0.001*float64(i), Y: 0.1, Z: 0.1}
	}
	return &job.Job{ID: 1, User: 1, Type: job.Batched, Queries: []*query.Query{{ID: 1, JobID: 1, Points: pts}}}
}

// TestCostHandedAsGiven pins what the assembler does with Config.Cost
// today: NewScheduler and EngineConfig hand it on exactly as given. Left
// zero — as cmd/jaws and cmd/jawsd leave it — the scheduler therefore
// scores with a zero cost model (Eq. 1 yields U_t = 0 for every atom) while
// the engine falls back to its own default, the zero-CostModel issue of
// DESIGN.md §19. The fix is one line in the defaults block
// (Config.WithDefaults: default Cost there, so both readers see the same
// model); it changes serving behaviour, so it waits for a re-baseline of
// the wall-clock benchmark — and when it lands, the zero-cost assertions
// below flip on purpose.
func TestCostHandedAsGiven(t *testing.T) {
	utility := func(cost sched.CostModel) float64 {
		cfg := smallConfig(system.SchedJAWS2)
		cfg.Cost = cost
		sys, err := system.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.EngineConfig(nil).Cost; got != cost {
			t.Fatalf("engine config carries cost %+v, want %+v as given", got, cost)
		}
		sc := sys.NewScheduler()
		sqs, err := query.PreProcess(oneQueryJob(10).Queries[0], cfg.Space)
		if err != nil {
			t.Fatal(err)
		}
		sc.Enqueue(sqs[0], 0)
		return sc.(sched.UtilityProvider).AtomUtility(sqs[0].Atom)
	}
	if u := utility(testCost); u <= 0 {
		t.Fatalf("U_t = %v under a real cost model, want > 0", u)
	}
	if u := utility(sched.CostModel{}); u != 0 {
		t.Fatalf("U_t = %v under the zero cost model, want 0 (was the cost-model fix made? see the comment)", u)
	}

	// The engine's side: a zero Cost runs exactly as the engine's default
	// T_m = 20 µs does, and not as another T_m. NoShare reads no cost
	// model, so only the engine's can move the clock.
	elapsed := func(cost sched.CostModel) time.Duration {
		cfg := smallConfig(system.SchedNoShare)
		cfg.Cost = cost
		sys, err := system.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run([]*job.Job{oneQueryJob(1000)})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}
	zero := elapsed(sched.CostModel{})
	if def := elapsed(sched.CostModel{Tm: 20 * time.Microsecond}); zero != def {
		t.Fatalf("zero cost ran %v, the engine's default T_m %v", zero, def)
	}
	if other := elapsed(sched.CostModel{Tm: 40 * time.Microsecond}); zero == other {
		t.Fatalf("T_m does not reach the clock: %v either way", zero)
	}
}

func TestEnumNames(t *testing.T) {
	for v, name := range system.SchedulerNames() {
		s := system.Scheduler(v)
		for _, spelling := range []string{name, s.String(), strings.ToUpper(name)} {
			if got, err := system.ParseScheduler(spelling); err != nil || got != s {
				t.Errorf("ParseScheduler(%q) = %v, %v; want %v", spelling, got, err, s)
			}
		}
		text, _ := s.MarshalText()
		var back system.Scheduler
		if err := back.UnmarshalText(text); err != nil || back != s {
			t.Errorf("scheduler %v does not round-trip through text %q: %v, %v", s, text, back, err)
		}
	}
	for v, name := range system.CachePolicyNames() {
		p := system.CachePolicy(v)
		for _, spelling := range []string{name, p.String(), strings.ToUpper(name)} {
			if got, err := system.ParseCachePolicy(spelling); err != nil || got != p {
				t.Errorf("ParseCachePolicy(%q) = %v, %v; want %v", spelling, got, err, p)
			}
		}
		text, _ := p.MarshalText()
		var back system.CachePolicy
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Errorf("policy %v does not round-trip through text %q: %v, %v", p, text, back, err)
		}
	}
	if got := len(system.SchedulerNames()); got != 5 {
		t.Errorf("%d scheduler names, want 5", got)
	}
	if got := len(system.CachePolicyNames()); got != 3 {
		t.Errorf("%d cache policy names, want 3", got)
	}
	if p, err := system.ParseCachePolicy("lru-k"); err != nil || p != system.PolicyLRUK {
		t.Errorf(`ParseCachePolicy("lru-k") = %v, %v`, p, err)
	}
	if system.Scheduler(42).String() != "Scheduler(42)" || system.CachePolicy(-1).String() != "CachePolicy(-1)" {
		t.Error("out-of-range values do not print as such")
	}
	// A bad name is an error that lists the good ones and leaves the
	// value alone.
	s := system.SchedJAWS1
	err := s.UnmarshalText([]byte("bogus"))
	if err == nil || !strings.Contains(err.Error(), `unknown scheduler "bogus"`) || !strings.Contains(err.Error(), "jaws2") || s != system.SchedJAWS1 {
		t.Errorf("bad scheduler name: value %v, error %v", s, err)
	}
	if _, err := system.ParseCachePolicy("bogus"); err == nil || !strings.Contains(err.Error(), `unknown cache policy "bogus"`) {
		t.Errorf("bad cache policy name: %v", err)
	}
}

// TestEveryAssembledSchedulerFillsItsCapture holds the contract the flight
// recorder builds on: for every non-empty decision, the record's Chosen
// lists the decision's batches — each batch's atom, in execution order,
// with its sub-queries' query IDs. It covers every scheduler NewScheduler
// assembles, the JAWS hooks (the tail-policy stack, QoS) included.
func TestEveryAssembledSchedulerFillsItsCapture(t *testing.T) {
	type variant struct {
		alg  system.Scheduler
		tail string
		qos  float64
	}
	var variants []variant
	for _, alg := range experiments.AllAlgorithms() {
		variants = append(variants, variant{alg: alg})
	}
	variants = append(variants, variant{system.SchedJAWS2, "gate-aware;cross-step;adaptive-batch", 0},
		variant{system.SchedJAWS1, "", 1})
	for _, v := range variants {
		s := experiments.TestScale()
		s.Jobs = 20
		cfg := s.Node(v.alg, s.BatchSize)
		cfg.TailPolicy, cfg.QoSStretch = v.tail, v.qos
		rec := obs.NewFlightRecorder(true, nil, nil)
		cfg.Obs = &obs.Obs{Flight: rec}
		sys, err := system.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]obs.DecisionAtom
		ec := sys.EngineConfig(sys.NewScheduler())
		ec.OnDecision = func(_ time.Duration, batches []sched.Batch) {
			d := make([]obs.DecisionAtom, len(batches))
			for i, b := range batches {
				d[i] = obs.DecisionAtom{Step: b.Atom.Step, Code: uint64(b.Atom.Code), Subs: len(b.SubQueries)}
				for _, sq := range b.SubQueries {
					d[i].Queries = append(d[i].Queries, int64(sq.Query.ID))
				}
			}
			want = append(want, d)
		}
		e, err := engine.New(ec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(experiments.FreshJobs(s, 1)); err != nil {
			t.Fatal(err)
		}
		recs, urgent := rec.Records(), false
		if len(recs) != len(want) || len(want) == 0 {
			t.Fatalf("%v %q qos=%g: %d flight records for %d non-empty decisions", v.alg, v.tail, v.qos, len(recs), len(want))
		}
		for i, r := range recs {
			urgent = urgent || r.Urgent
			got := make([]obs.DecisionAtom, len(r.Chosen))
			for j, c := range r.Chosen {
				c.Ut, c.Ue, c.AgeMS = 0, 0, 0 // the scheduler's scores, not the batch's
				got[j] = c
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%v %q qos=%g: decision %d: Chosen %+v, batches %+v", v.alg, v.tail, v.qos, i, got, want[i])
			}
		}
		if v.qos > 0 && !urgent {
			t.Errorf("%v %q qos=%g: no urgent round, so the QoS pre-pass's capture went untested", v.alg, v.tail, v.qos)
		}
	}
}
