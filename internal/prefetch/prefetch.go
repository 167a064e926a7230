// Package prefetch implements the trajectory extrapolation sketched in
// the paper's discussion (§VII): "we can extrapolate the trajectory of
// jobs in time and space (i.e. the velocity of the bounding box or time
// step delta between consecutive queries) to predict which data atoms are
// accessed by subsequent queries" and pre-fetch them to mask page faults.
//
// The predictor watches each ordered job's completed queries, estimates
// the drift velocity of the query cloud's centroid and the step delta
// between consecutive queries, and predicts the atom footprint of the
// next query. The engine fetches predicted atoms during the job's think
// time, when the scientist is computing the next positions outside the
// database and the job holds no I/O.
package prefetch

import (
	"math"

	"jaws/internal/geom"
	"jaws/internal/query"
	"jaws/internal/store"
)

// observation summarizes one completed query of a job.
type observation struct {
	step     int
	centroid geom.Position
	spread   float64 // RMS distance of points from the centroid
}

// Predictor extrapolates per-job query trajectories.
type Predictor struct {
	space geom.Space
	hist  map[int64][2]observation // previous and latest observation
	seen  map[int64]int            // observations so far per job
}

// New creates a predictor for the given geometry.
func New(space geom.Space) *Predictor {
	return &Predictor{
		space: space,
		hist:  make(map[int64][2]observation),
		seen:  make(map[int64]int),
	}
}

// Observe records a completed query of job jobID.
func (p *Predictor) Observe(jobID int64, q *query.Query) {
	if len(q.Points) == 0 {
		return
	}
	ob := summarize(q)
	h := p.hist[jobID]
	h[0] = h[1]
	h[1] = ob
	p.hist[jobID] = h
	p.seen[jobID]++
}

// summarize computes the centroid and spread of a query's point cloud.
// The centroid of a periodic cloud is computed by unwrapping every point
// to the copy nearest the first point — valid for clouds much smaller
// than the box, which query clouds are.
func summarize(q *query.Query) observation {
	ref := geom.Wrap(q.Points[0])
	var sx, sy, sz float64
	unwrapped := make([]geom.Position, len(q.Points))
	for i, raw := range q.Points {
		pt := geom.Wrap(raw)
		pt = geom.Position{
			X: ref.X + wrapDelta(pt.X-ref.X),
			Y: ref.Y + wrapDelta(pt.Y-ref.Y),
			Z: ref.Z + wrapDelta(pt.Z-ref.Z),
		}
		unwrapped[i] = pt
		sx += pt.X
		sy += pt.Y
		sz += pt.Z
	}
	n := float64(len(q.Points))
	c := geom.Position{X: sx / n, Y: sy / n, Z: sz / n}
	var s2 float64
	for _, pt := range unwrapped {
		dx, dy, dz := pt.X-c.X, pt.Y-c.Y, pt.Z-c.Z
		s2 += float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
	}
	return observation{step: q.Step, centroid: geom.Wrap(c), spread: math.Sqrt(s2 / n)}
}

// wrapDelta maps a coordinate difference into (−L/2, L/2] (minimum image).
func wrapDelta(d float64) float64 {
	d = math.Mod(d, geom.DomainSide)
	switch {
	case d > geom.DomainSide/2:
		d -= geom.DomainSide
	case d < -geom.DomainSide/2:
		d += geom.DomainSide
	}
	return d
}

// Predict returns the atoms the job's next query is likely to touch, most
// probable first, or nil when the job has too little history (fewer than
// two observations).
func (p *Predictor) Predict(jobID int64) []store.AtomID {
	if p.seen[jobID] < 2 {
		return nil
	}
	h := p.hist[jobID]
	prev, last := h[0], h[1]

	stepDelta := last.step - prev.step
	nextStep := last.step + stepDelta
	if nextStep < 0 {
		nextStep = 0
	}
	vel := geom.Position{
		X: wrapDelta(last.centroid.X - prev.centroid.X),
		Y: wrapDelta(last.centroid.Y - prev.centroid.Y),
		Z: wrapDelta(last.centroid.Z - prev.centroid.Z),
	}
	next := geom.Wrap(geom.Position{
		X: last.centroid.X + vel.X,
		Y: last.centroid.Y + vel.Y,
		Z: last.centroid.Z + vel.Z,
	})

	// Enumerate atoms within the cloud's spread of the predicted
	// centroid: the centroid's atom first, then the face neighbours the
	// cloud plausibly spills into.
	radiusVox := int(math.Ceil(last.spread / p.space.VoxelSize()))
	coords := p.space.Footprint(next, radiusVox)
	out := make([]store.AtomID, 0, len(coords))
	for _, ac := range coords {
		out = append(out, store.AtomID{Step: nextStep, Code: ac.Code()})
	}
	return out
}

// Forget drops a completed job's history.
func (p *Predictor) Forget(jobID int64) {
	delete(p.hist, jobID)
	delete(p.seen, jobID)
}
