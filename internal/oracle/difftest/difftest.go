// Package difftest is the harness of every reference pair (DESIGN.md §11):
// one decoder, replay(TB, *Log), reads a byte op log and applies each op to
// both sides, failing on the first difference; the pair's seeded test runs
// it through Seeds and its fuzz target on the fuzzer's bytes. It imports
// nothing of this module, so that internal tests can import it.
package difftest

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TB is the part of testing.TB a decoder reports through.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Log reads an op log. Reads past its end return 0, so any bytes decode.
type Log struct {
	data []byte
	pos  int
}

// NewLog returns a Log that reads data from its start.
func NewLog(data []byte) *Log { return &Log{data: data} }

// More reports whether the log has unread bytes.
func (l *Log) More() bool { return l.pos < len(l.data) }

// Byte returns the next byte.
func (l *Log) Byte() byte {
	if l.pos == len(l.data) {
		return 0
	}
	l.pos++
	return l.data[l.pos-1]
}

// Intn returns a number in [0, n), n > 0, made of the next bytes, big end
// first: one byte for n ≤ 256, two for n ≤ 65 536, and so on.
func (l *Log) Intn(n int) int {
	v := int(l.Byte())
	for m := 256; m < n; m <<= 8 {
		v = v<<8 | int(l.Byte())
	}
	return v % n
}

// Shrink returns a short sub-sequence of ops, which must fail, on which
// fails still holds: a chunked pass drops runs of half the ops, a quarter,
// … down to pairs; then single ops go greedily until none can.
func Shrink[T any](ops []T, fails func([]T) bool) []T {
	without := func(i, n int) []T {
		return append(append(make([]T, 0, len(ops)-n), ops[:i]...), ops[i+n:]...)
	}
	for n := len(ops) / 2; n >= 2; n /= 2 {
		for i := 0; i+n <= len(ops); {
			if cand := without(i, n); fails(cand) {
				ops = cand
			} else {
				i += n
			}
		}
	}
	for again := true; again; {
		again = false
		for i := 0; i < len(ops); i++ {
			if cand := without(i, 1); fails(cand) {
				ops, again = cand, true
				i--
			}
		}
	}
	return ops
}

// Gen says which logs Seeds replays: seeds First to First+N−1, the log of
// each Head followed by Min+rng.Intn(Span) bytes (Min when Span is 0) read
// from a math/rand source seeded with it.
type Gen struct {
	First     int64
	N         int
	Head      []byte
	Min, Span int
}

func (g Gen) log(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	n := g.Min
	if g.Span > 0 {
		n += rng.Intn(g.Span)
	}
	log := make([]byte, len(g.Head)+n)
	rng.Read(log[copy(log, g.Head):])
	return log
}

// Seeds replays the logs of g, each in a subtest named seed=N. The first
// log that fails is cut where the failure was read, shrunk for at most
// shrinkTime and reported with its seed, its shrunk length, the failure it
// then ends in, which names the first diverging op, and an f.Add literal
// that keeps it as a fuzz seed. No later log runs.
func Seeds(t *testing.T, g Gen, replay func(TB, *Log)) {
	t.Helper()
	for seed := g.First; seed < g.First+int64(g.N); seed++ {
		if !t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if msg := check(g.log(seed), replay); msg != "" {
				t.Fatalf("seed %d: %s", seed, msg)
			}
		}) {
			return
		}
	}
}

// shrinkTime bounds the shrinking of a failing log, as -fuzzminimizetime
// bounds the fuzzer's: a long log of a slow pair would otherwise hold a
// failing test for minutes.
const shrinkTime = 10 * time.Second

// check replays data and returns "" when it passes, else Seeds' report.
func check(data []byte, replay func(TB, *Log)) string {
	failed, _, read := run(data, replay)
	if !failed {
		return ""
	}
	deadline := time.Now().Add(shrinkTime)
	fails := func(b []byte) bool {
		failed, _, _ := run(b, replay)
		return failed && time.Now().Before(deadline)
	}
	small := data
	if fails(data[:read]) {
		small = data[:read]
	}
	small = Shrink(small, fails)
	_, msg, _ := run(small, replay)
	return fmt.Sprintf("a log of %d bytes fails; shrunk to %d bytes, it fails with\n\t%s\nkeep it as a seed of the fuzz target:\n\tf.Add(%#v)", len(data), len(small), msg, small)
}

// recorder is the TB check replays under: Fatalf keeps the message and
// unwinds the replay.
type recorder struct{ msg string }

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) {
	r.msg = fmt.Sprintf(format, args...)
	panic(r)
}

// run replays data and returns whether it failed, a panic included, with
// what, and how many bytes the decoder had read by then.
func run(data []byte, replay func(TB, *Log)) (failed bool, msg string, read int) {
	r, l := new(recorder), NewLog(data)
	defer func() {
		if v := recover(); v != nil {
			failed, msg, read = true, fmt.Sprint("panic: ", v), l.pos
			if v == r {
				msg = r.msg
			}
		}
	}()
	replay(r, l)
	return false, "", l.pos
}
