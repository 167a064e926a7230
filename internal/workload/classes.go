package workload

import (
	"fmt"
	"time"

	"jaws/internal/geom"
	"jaws/internal/query"
)

// Query classes beyond point interpolation (DESIGN.md §12, "Scenario matrix"): cutouts —
// the box/sphere lattice patterns the Turbulence web services expose,
// built on the query.BoxQuery/query.SphereQuery constructors — and
// temporal-derivative chains, whose per-step sub-queries stress the
// gating graph and the scheduler's step buckets.

// makeCutout builds one box or sphere cutout around center: a regular
// lattice spanning many atoms, alternating box/sphere per draw. The
// lattice is BoxSide across with Config.BoxStride spacing.
func (g *generator) makeCutout(jobID int64, seq, step int, center geom.Position, arrival time.Duration) *query.Query {
	const half = BoxSide / 2
	var q *query.Query
	var err error
	if g.rng.Float64() < 0.5 {
		lo := geom.Position{X: center.X - half, Y: center.Y - half, Z: center.Z - half}
		hi := geom.Position{X: center.X + half, Y: center.Y + half, Z: center.Z + half}
		q, err = query.BoxQuery(g.nextQuery, g.cfg.Space, step, lo, hi, g.cfg.BoxStride, g.kernelFor(jobID))
	} else {
		q, err = query.SphereQuery(g.nextQuery, g.cfg.Space, step, center, half, g.cfg.BoxStride, g.kernelFor(jobID))
	}
	if err != nil {
		// The generator validates its own parameters (side ≥ one lattice
		// cell, radius within the domain), so a failure is a bug here.
		panic(fmt.Sprintf("workload: cutout generation: %v", err))
	}
	q.JobID = jobID
	q.Seq = seq
	q.Arrival = arrival
	return q
}

// makeDeriv builds one temporal-derivative query: the usual clustered
// point cloud, evaluated at DerivChain adjacent steps anchored at step
// (clamped so the chain stays inside the stored range) and finite-
// differenced by the engine.
func (g *generator) makeDeriv(jobID int64, seq, step int, center geom.Position, arrival time.Duration) *query.Query {
	k := g.cfg.DerivChain
	if step > g.cfg.Steps-k {
		step = g.cfg.Steps - k
	}
	n := g.cfg.PointsPerQuery/2 + g.rng.Intn(g.cfg.PointsPerQuery)
	pts := make([]geom.Position, n)
	for i := range pts {
		pts[i] = g.jitter(center, 0.08)
	}
	return &query.Query{
		ID:         g.nextQuery,
		JobID:      jobID,
		Seq:        seq,
		Step:       step,
		DerivSteps: k,
		Points:     pts,
		Kernel:     g.kernelFor(jobID),
		Arrival:    arrival,
	}
}
