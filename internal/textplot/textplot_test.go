package textplot

import (
	"strings"
	"testing"
)

func TestSeriesAppend(t *testing.T) {
	var s Series
	s.Append(1, 10)
	s.Append(2, 20)
	if len(s.X) != 2 || s.X[1] != 2 || s.Y[1] != 20 {
		t.Fatalf("series = %+v", s)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"alg", "throughput"}}
	tb.AddRow("NoShare", "0.30")
	tb.AddRow("JAWS2", "0.78")
	out := tb.String()
	if !strings.Contains(out, "NoShare") || !strings.Contains(out, "JAWS2") {
		t.Fatalf("table missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Columns aligned: header and rows share the separator width.
	if len(lines[0]) > len(lines[1])+2 {
		t.Fatalf("misaligned table:\n%s", out)
	}
}

// Regression: a row wider than the header used to index past the width
// table and panic; now the extra columns render.
func TestTableRaggedRows(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}}
	tb.AddRow("1")
	tb.AddRow("1", "2", "3")
	s := tb.String()
	if !strings.Contains(s, "3") {
		t.Fatalf("extra column dropped from rendering:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), s)
	}
}
