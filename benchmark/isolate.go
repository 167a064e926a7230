package main

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"time"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/jobgraph"
	"jaws/internal/query"
	"jaws/internal/server"
	"jaws/internal/store"
)

// Layers whose seam is a concrete type cannot be decorated. They are timed
// here instead: the exact call stream the traced run produced (the queries,
// their points, the miss stream, the ordered jobs, the bodies) is replayed
// against the layer's public function alone, on this goroutine, with the
// allocator counters read around the loop.

// isolated is the cost of one replayed call stream.
type isolated struct {
	ops    int
	perOp  time.Duration
	allocs float64 // objects allocated per op
}

func (r isolated) us() float64 { return float64(r.perOp) / float64(time.Microsecond) }
func (r isolated) ns() float64 { return float64(r.perOp) }

// total is the time the stream's n calls cost at the measured rate.
func (r isolated) total(n int64) time.Duration { return time.Duration(n) * r.perOp }

// replayStream calls fn(i) for i in [0,n), stopping early once budget is
// spent, and returns the mean cost of the calls made.
func replayStream(n int, budget time.Duration, fn func(i int)) isolated {
	if n == 0 {
		return isolated{}
	}
	runtime.GC()
	m0 := selfMem(false)
	t0 := time.Now()
	done := 0
	for done < n {
		fn(done)
		done++
		if done%32 == 0 && time.Since(t0) > budget {
			break
		}
	}
	wall := time.Since(t0)
	m1 := selfMem(false)
	return isolated{
		ops:    done,
		perOp:  wall / time.Duration(done),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(done),
	}
}

// sink keeps replayed results alive so the calls are not optimised away.
var sink any

// isolatePreProcess replays the queries through query.PreProcess and
// reports its cost per query and the sub-queries it produced per query.
func isolatePreProcess(qs []*query.Query, space geom.Space, budget time.Duration) (isolated, float64) {
	subs := 0
	r := replayStream(len(qs), budget, func(i int) {
		sqs, err := query.PreProcess(qs[i], space)
		if err != nil {
			panic(err) // the engine pre-processed the same query already
		}
		subs += len(sqs)
		sink = sqs
	})
	return r, ratio(float64(subs), float64(r.ops))
}

// isolateFootprint replays the same queries' points through
// geom.Space.Footprint, once per point; the cost is per query.
func isolateFootprint(qs []*query.Query, space geom.Space, budget time.Duration) isolated {
	return replayStream(len(qs), budget, func(i int) {
		radius := qs[i].Kernel.StencilRadius()
		for _, p := range qs[i].Points {
			sink = space.Footprint(p, radius)
		}
	})
}

// isolateRead replays the miss stream through Store.Read, on a store of its
// own (same configuration; the traced store's disk counters stay intact),
// and through Field.SampleGhost alone.
func isolateRead(cfg store.Config, misses []store.AtomID, budget time.Duration) (read, sample isolated, err error) {
	st, err := store.Open(cfg)
	if err != nil {
		return read, sample, err
	}
	side := cfg.SampleSide
	if side <= 0 {
		side = 8 // store.Open's default
	}
	read = replayStream(len(misses), budget, func(i int) {
		a, _, err := st.Read(misses[i])
		if err != nil {
			panic(err) // the traced run read the same atom
		}
		sink = a
	})
	f := st.Field()
	sample = replayStream(len(misses), budget, func(i int) {
		id := misses[i]
		sink = f.SampleGhost(id.Step, cfg.Space, geom.AtomFromCode(id.Code), side, cfg.SampleGhost)
	})
	return read, sample, nil
}

// indexStream is what the index walk is timed over: the miss stream, or for
// a workload that never missed the atoms its queries touch.
func indexStream(misses []store.AtomID, qs []*query.Query, space geom.Space) []store.AtomID {
	if len(misses) > 0 {
		return misses
	}
	var ids []store.AtomID
	for _, q := range qs {
		for id := range query.Atoms(q, space) {
			ids = append(ids, id)
		}
		if len(ids) >= 1<<16 {
			break
		}
	}
	return ids
}

// isolateIndex replays ids through Store.Contains: the B+-tree walk alone.
func isolateIndex(st *store.Store, ids []store.AtomID, budget time.Duration) isolated {
	found := 0
	r := replayStream(len(ids), budget, func(i int) {
		if st.Contains(ids[i]) {
			found++
		}
	})
	sink = found
	return r
}

// isolateInterpolate replays the queries' points through field.Interpolate
// against resident atoms (read before the clock starts); the cost is per
// point and chain step.
func isolateInterpolate(qs []*query.Query, v *verifier, budget time.Duration) (isolated, error) {
	type call struct {
		k   field.Kernel
		a   *field.Atom
		ac  geom.AtomCoord
		pos geom.Position
	}
	var calls []call
	const maxCalls = 1 << 18
	for _, q := range qs {
		for s := 0; s < q.ChainLen() && len(calls) < maxCalls; s++ {
			for _, p := range q.Points {
				ac := v.space.AtomOf(p)
				a, err := v.atom(store.AtomID{Step: q.Step + s, Code: ac.Code()})
				if err != nil {
					return isolated{}, err
				}
				calls = append(calls, call{k: q.Kernel, a: a, ac: ac, pos: p})
			}
		}
	}
	var acc [field.Components]float64
	r := replayStream(len(calls), budget, func(i int) {
		c := &calls[i]
		acc = field.Interpolate(c.k, c.a, v.space, c.ac, c.pos)
	})
	sink = acc
	return r, nil
}

// isolateCodec replays request bodies through the decoder the server uses
// and the sampled responses through its encoder.
func isolateCodec(bodies [][]byte, responses [][]byte, budget time.Duration) (dec, enc isolated, err error) {
	dec = replayStream(len(bodies), budget, func(i int) {
		d := json.NewDecoder(bytes.NewReader(bodies[i]))
		d.DisallowUnknownFields()
		var in server.QueryRequest
		if err := d.Decode(&in); err != nil {
			panic(err) // the server accepted the same body
		}
		sink = in.Points
	})
	decoded := make([]server.QueryResponse, len(responses))
	for i, b := range responses {
		if err := json.Unmarshal(b, &decoded[i]); err != nil {
			return dec, enc, err
		}
	}
	enc = replayStream(len(decoded), budget, func(i int) {
		if err := json.NewEncoder(io.Discard).Encode(&decoded[i]); err != nil {
			panic(err)
		}
	})
	return dec, enc, nil
}

// graphStream is the jobgraph's call stream of one replay, rebuilt from
// what the seams showed: the ordered jobs, the instants of the decisions
// (engine.Config.OnDecision) and the queries in completion order (the
// report's Results). The engine registers a job when its first query is
// delivered, at the top of the first cycle whose clock has passed the
// arrival, and marks queries done while executing a decision; so a
// completion follows exactly the registrations of the jobs that had
// arrived by the instant of the decision that completed it.
type graphStream struct {
	ordered   []*job.Job // by first arrival, ties in trace order
	atoms     [][][]store.AtomID
	decisions []time.Duration // virtual instants of the decisions, ascending
	done      []doneEvent     // in completion order
}

type doneEvent struct {
	ref jobgraph.Ref
	at  time.Duration // virtual completion time
}

// jobAtoms is the per-query atom list the engine hands to AddJobWithAtoms.
func jobAtoms(j *job.Job, space geom.Space) [][]store.AtomID {
	out := make([][]store.AtomID, len(j.Queries))
	for s, q := range j.Queries {
		set := query.Atoms(q, space)
		lst := make([]store.AtomID, 0, len(set))
		for id := range set {
			lst = append(lst, id)
		}
		sort.Slice(lst, func(a, b int) bool { return lst[a].Key() < lst[b].Key() })
		out[s] = lst
	}
	return out
}

// newGraphStream captures the ordered jobs of a trace before it runs (the
// engine rewrites successor arrival times in place; first arrivals are
// fixed).
func newGraphStream(jobs []*job.Job, space geom.Space) *graphStream {
	g := &graphStream{}
	for _, j := range jobs {
		if j.Type == job.Ordered {
			g.ordered = append(g.ordered, j)
		}
	}
	sort.SliceStable(g.ordered, func(a, b int) bool {
		return g.ordered[a].Queries[0].Arrival < g.ordered[b].Queries[0].Arrival
	})
	for _, j := range g.ordered {
		g.atoms = append(g.atoms, jobAtoms(j, space))
	}
	return g
}

// graphReplay is what replaying a graphStream measured.
type graphReplay struct {
	admit              isolated
	admitted, rejected int
	// skipped counts completions the rebuilt stream could not apply because
	// the query was not in the QUEUE state: zero when the stream is exact.
	skipped int
}

// replay feeds the stream to a fresh jobgraph.Graph, timing the
// AddJobWithAtoms calls alone.
func (g *graphStream) replay() graphReplay {
	var out graphReplay
	if len(g.ordered) == 0 {
		return out
	}
	isOrdered := make(map[int64]bool, len(g.ordered))
	for _, j := range g.ordered {
		isOrdered[j.ID] = true
	}
	graph := jobgraph.New(nil)
	next := 0 // next job to register
	var admitTime time.Duration
	var admitAllocs uint64
	register := func(upTo time.Duration) {
		for next < len(g.ordered) && g.ordered[next].Queries[0].Arrival <= upTo {
			a0 := allocObjects()
			t0 := time.Now()
			if err := graph.AddJobWithAtoms(g.ordered[next].ID, g.atoms[next]); err != nil {
				panic(err) // job IDs are unique within a trace
			}
			admitTime += time.Since(t0)
			admitAllocs += allocObjects() - a0
			next++
		}
	}
	d := 0
	for _, ev := range g.done {
		// The decision that completed ev is the last one strictly before
		// its completion time (executing a decision always advances the
		// clock).
		for d+1 < len(g.decisions) && g.decisions[d+1] < ev.at {
			d++
		}
		if len(g.decisions) > 0 {
			register(g.decisions[d])
		}
		if !isOrdered[ev.ref.Job] {
			continue
		}
		if graph.State(ev.ref) != jobgraph.Queue {
			out.skipped++
			continue
		}
		graph.MarkDone(ev.ref)
	}
	register(1<<62 - 1)
	out.admit = isolated{
		ops:    len(g.ordered),
		perOp:  admitTime / time.Duration(len(g.ordered)),
		allocs: float64(admitAllocs) / float64(len(g.ordered)),
	}
	out.admitted, out.rejected = graph.EdgesAdmitted(), graph.EdgesRejected()
	return out
}
