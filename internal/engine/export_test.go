package engine

import (
	"jaws/internal/job"
	"jaws/internal/jobgraph"
	"jaws/internal/query"
	"jaws/internal/sched"
)

// FrameGateState is the engine's gate source as the scheduler calls it:
// the state dispatch stored in the query's frame.
func (e *Engine) FrameGateState(qid query.ID) sched.GateState { return e.gateState(qid) }

// DerivedGateState is the gate source the engine had before frames: the
// same answer derived from the job graph at the time of the call, through
// two engine lookups, Graph.State and Graph.BlockedBy. Kept as the
// reference TestGateStateMatchesGraphDerivation holds the stored state to.
func (e *Engine) DerivedGateState(qid query.ID) sched.GateState {
	st := e.states[qid]
	if st == nil {
		return sched.GateFree
	}
	q := st.q
	j := e.jobsByID[q.JobID].Job
	if j == nil || j.Type != job.Ordered {
		return sched.GateFree
	}
	if q.Seq+1 < len(j.Queries) &&
		e.graph.State(jobgraph.Ref{Job: q.JobID, Seq: q.Seq + 1}) == jobgraph.Wait {
		return sched.GateReleasing
	}
	if len(e.graph.BlockedBy(jobgraph.Ref{Job: q.JobID, Seq: q.Seq}, nil)) > 0 {
		return sched.GateBlocked
	}
	return sched.GateFree
}
