package textplot

import (
	"strings"
	"testing"
)

func TestCSV(t *testing.T) {
	tb := Table{Header: []string{"a", "b"}}
	tb.AddRow("x", "1")
	tb.AddRow(`needs,quote`, `has "quotes"`)
	out := tb.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if lines[0] != "a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != `"needs,quote","has ""quotes"""` {
		t.Fatalf("quoting broken: %q", lines[2])
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart([]string{"NoShare", "JAWS2"}, []float64{1, 2.5}, 20)
	if !strings.Contains(out, "NoShare") || !strings.Contains(out, "JAWS2") {
		t.Fatalf("labels missing:\n%s", out)
	}
	// The larger value gets the longer bar.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if strings.Count(lines[1], "█") <= strings.Count(lines[0], "█") {
		t.Fatalf("bars not proportional:\n%s", out)
	}
}

func TestBarChartZeroValues(t *testing.T) {
	out := BarChart([]string{"a"}, []float64{0}, 10)
	if !strings.Contains(out, "a") {
		t.Fatal("zero-value chart broken")
	}
}

func TestLineChart(t *testing.T) {
	s1 := Series{Label: "up", Y: []float64{1, 2, 3, 4}}
	s2 := Series{Label: "down", Y: []float64{4, 3, 2, 1}}
	out := LineChart([]Series{s1, s2}, 6)
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("marks missing:\n%s", out)
	}
}

func TestLineChartDegenerate(t *testing.T) {
	if LineChart(nil, 5) != "" {
		t.Fatal("empty series should render empty")
	}
	flat := Series{Label: "flat", Y: []float64{2, 2, 2}}
	out := LineChart([]Series{flat}, 4)
	if out == "" {
		t.Fatal("flat series should still render")
	}
}

func TestLineChartDownsamplesLongSeries(t *testing.T) {
	long := Series{Label: "long"}
	for i := 0; i < 500; i++ {
		long.Append(float64(i), float64(i%7))
	}
	out := LineChart([]Series{long}, 6)
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 300 {
			t.Fatalf("chart line %d chars wide, not downsampled", len(line))
		}
	}
}
