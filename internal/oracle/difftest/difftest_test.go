package difftest

import (
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// holds37 fails on a log that holds a 3 and, later, a 7, naming the byte
// where the 7 was read.
func holds37(t TB, l *Log) {
	seen3 := false
	for op := 0; l.More(); op++ {
		switch b := l.Byte(); {
		case b == 3:
			seen3 = true
		case b == 7 && seen3:
			t.Fatalf("op %d: a 7 after a 3", op)
		}
	}
}

func TestShrinkKeepsOnlyWhatFails(t *testing.T) {
	ops := []byte{9, 7, 3, 1, 3, 0, 8, 7, 7, 2, 3, 5}
	for range 6 { // long enough for the chunked pass
		ops = append(ops, ops...)
	}
	fails := func(b []byte) bool {
		i := slices.Index(b, 3)
		return i >= 0 && slices.Contains(b[i:], 7)
	}
	if got := Shrink(ops, fails); !slices.Equal(got, []byte{3, 7}) {
		t.Fatalf("Shrink kept %v, want [3 7]", got)
	}
}

func TestLogReadsZeroPastItsEnd(t *testing.T) {
	l := NewLog([]byte{1, 2, 3})
	if got := l.Intn(1 << 16); got != 1<<8|2 {
		t.Fatalf("Intn(1<<16) = %d, want the first two bytes, big end first", got)
	}
	if !l.More() || l.Intn(2) != 1 {
		t.Fatal("the third byte did not read as 3 mod 2")
	}
	for range 2 {
		if b, n, more := l.Byte(), l.Intn(1000), l.More(); b != 0 || n != 0 || more {
			t.Fatalf("past the end: Byte %d, Intn %d, More %v", b, n, more)
		}
	}
}

// The literal a failing seed reports, replayed, fails as the report says;
// it is the shrunk log, shorter than the seeded one.
func TestSeedsReportReplays(t *testing.T) {
	data := Gen{First: 1, N: 1, Head: []byte{3}, Min: 600}.log(1)
	msg := check(data, holds37)
	m := regexp.MustCompile(`shrunk to (\d+) bytes, it fails with\n\t([^\n]*)\n.*\n\tf\.Add\(\[\]byte\{(.*)\}\)`).FindStringSubmatch(msg)
	if m == nil {
		t.Fatalf("no shrunk length, failure and literal in\n%s", msg)
	}
	var lit []byte
	for _, s := range strings.Split(m[3], ", ") {
		b, err := strconv.ParseUint(s, 0, 8)
		if err != nil {
			t.Fatalf("literal %q: %v", m[3], err)
		}
		lit = append(lit, byte(b))
	}
	if !slices.Equal(lit, []byte{3, 7}) || m[1] != "2" || len(data) <= 2 {
		t.Errorf("literal %v of reported length %s, from a log of %d bytes; want [3 7]", lit, m[1], len(data))
	}
	if failed, got, _ := run(lit, holds37); !failed || got != m[2] {
		t.Fatalf("the literal replays as %q (failed %v), the report says %q", got, failed, m[2])
	}
}
