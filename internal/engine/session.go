package engine

import (
	"errors"
	"fmt"
	"sync"

	"jaws/internal/job"
)

// Session is a long-lived interactive front end over an engine: jobs are
// submitted while earlier ones execute, results stream out as queries
// complete, and the virtual clock keeps advancing across submissions —
// the execution model of the public Turbulence service, where dozens of
// users feed a continuous stream of queries (§II).
//
// The session's simulation loop runs in its own goroutine and owns every
// engine structure; Submit and Close are safe to call from any goroutine.
type Session struct {
	submit  chan []*job.Job
	results chan *QueryResult
	closed  chan struct{}
	done    chan struct{}

	eng *Engine

	mu        sync.Mutex
	err       error
	report    *Report
	closeOnce sync.Once
}

// SessionBuffer is the capacity of the result stream; a consumer that
// falls further behind than this backpressures the simulation (which is
// harmless: virtual time is decoupled from wall time).
const SessionBuffer = 1024

// NewSession validates cfg and starts the session loop. KeepResults is
// implied (results are the product); Compute remains caller-controlled.
func NewSession(cfg Config) (*Session, error) {
	cfg.KeepResults = true
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e.results = new(resultList)
	s := &Session{
		eng:     e,
		submit:  make(chan []*job.Job),
		results: make(chan *QueryResult, SessionBuffer),
		closed:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	go s.loop(e)
	return s, nil
}

// Submit schedules jobs for execution at the current virtual time (their
// queries' Arrival fields are treated as offsets from "now"). It returns
// an error if the session is closed or the jobs are invalid. Job IDs must be
// unique over the session; what the loop detects, and fails on, is a
// duplicate of a live job — one with a query still to complete — since
// finished jobs are forgotten.
func (s *Session) Submit(jobs ...*job.Job) error {
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return err
		}
	}
	select {
	case <-s.closed:
		if err := s.Err(); err != nil {
			return fmt.Errorf("engine: session failed: %w", err)
		}
		return errors.New("engine: session closed")
	case s.submit <- jobs:
		return nil
	}
}

// Results streams completed queries in completion order. The channel
// closes after Close once every in-flight query has finished. A consumer
// done with a result may Release it; the session then reuses it and its
// sample buffer for a later query.
func (s *Session) Results() <-chan *QueryResult { return s.results }

// Close stops accepting submissions; the loop drains the in-flight work,
// closes the result stream, and the final report becomes available. A
// caller with more than SessionBuffer undelivered results must keep
// consuming Results concurrently or Close will wait for the stream to
// drain. The report's Results slice is empty: results were streamed.
func (s *Session) Close() *Report {
	s.closeOnce.Do(func() { close(s.closed) })
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// Err reports a loop failure (nil in normal operation).
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// loop is the session's simulation thread: it interleaves submissions
// with the engine's arrival/admit/execute cycle and streams completions.
func (s *Session) loop(e *Engine) {
	defer close(s.done)
	defer close(s.results)
	defer e.results.close()

	closing := false

	fail := func(err error) {
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
		// A dead loop can no longer receive from s.submit; close the
		// session so concurrent and future Submit calls error out instead
		// of blocking forever (the serving layer depends on this when a
		// fault injector crashes the node mid-stream).
		s.closeOnce.Do(func() { close(s.closed) })
	}

	// accept takes newly submitted jobs in, their arrivals offsets from the
	// current virtual time.
	accept := func(jobs []*job.Job) error { return e.intake(jobs, e.clock.Now()) }

	// flush streams the newly completed queries and empties the engine's
	// list of them, so a long session holds neither the results nor a list
	// as long as its history: the list's capacity is the largest burst one
	// cycle completed.
	flush := func() {
		for i, r := range e.report.Results {
			s.results <- r
			e.report.Results[i] = nil
		}
		e.report.Results = e.report.Results[:0]
	}

	stall := 0
	for {
		// Drain whatever is submittable without blocking.
	drain:
		for {
			select {
			case jobs := <-s.submit:
				if err := accept(jobs); err != nil {
					fail(err)
					return
				}
			case <-s.closed:
				closing = true
				break drain
			default:
				break drain
			}
		}

		// One engine cycle, the one Engine.Run drives: a scheduled crash
		// and Config.OnDecision reach the serving path as they do a run.
		worked, err := e.step()
		flush()
		if err != nil {
			fail(err)
			return
		}

		switch {
		case worked:
			stall = 0
		case e.report.Completed < e.total:
			if err := e.stalled(&stall); err != nil {
				fail(err)
				return
			}
		case closing:
			e.finishReport()
			rep := e.report // detached from the engine, as Run's
			s.mu.Lock()
			s.report = &rep
			s.mu.Unlock()
			return
		default:
			// Idle: block until a submission or Close arrives. Virtual
			// time only moves for work, so waiting costs nothing.
			select {
			case jobs := <-s.submit:
				if err := accept(jobs); err != nil {
					fail(err)
					return
				}
			case <-s.closed:
				closing = true
			}
		}
	}
}
