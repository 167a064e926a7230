package textplot

import (
	"fmt"
	"math"
	"strings"
)

// CSV renders the table as RFC-4180-ish CSV (fields with commas or quotes
// are quoted), for piping jawsbench output into plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// barChart renders horizontal bars for labelled values — the text
// equivalent of the paper's bar figures.
func BarChart(labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 40
	}
	maxV := 0.0
	maxLabel := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxLabel {
			maxLabel = len(labels[i])
		}
	}
	var b strings.Builder
	for i, v := range values {
		n := 0
		if maxV > 0 {
			n = int(math.Round(v / maxV * float64(width)))
		}
		fmt.Fprintf(&b, "%-*s | %s %.3f\n", maxLabel, labels[i], strings.Repeat("█", n), v)
	}
	return b.String()
}

// LineChart renders one or more series on a shared y-scaled text canvas —
// the text equivalent of the paper's line figures. X positions are taken
// as equally spaced sample indices (the experiments sample fixed sweeps).
// Long series are downsampled by bucket-averaging so the canvas stays
// terminal-width.
func LineChart(series []Series, height int) string {
	if len(series) == 0 {
		return ""
	}
	if height <= 0 {
		height = 10
	}
	const maxPoints = 36
	plotted := make([]Series, len(series))
	for i, s := range series {
		plotted[i] = s
		if len(s.Y) > maxPoints {
			plotted[i] = Series{Label: s.Label, Y: downsample(s.Y, maxPoints)}
		}
	}
	series = plotted
	width := 0
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.Y) > width {
			width = len(s.Y)
		}
		for _, y := range s.Y {
			minY = math.Min(minY, y)
			maxY = math.Max(maxY, y)
		}
	}
	if width == 0 {
		return ""
	}
	if maxY == minY {
		maxY = minY + 1
	}
	const colsPerPoint = 6
	canvas := make([][]byte, height)
	for r := range canvas {
		canvas[r] = []byte(strings.Repeat(" ", width*colsPerPoint))
	}
	marks := []byte{'*', 'o', '+', 'x', '#', '@'}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i, y := range s.Y {
			row := int(math.Round((maxY - y) / (maxY - minY) * float64(height-1)))
			col := i * colsPerPoint
			canvas[row][col] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10.3f ┤\n", maxY)
	for _, row := range canvas {
		fmt.Fprintf(&b, "%10s │%s\n", "", string(row))
	}
	fmt.Fprintf(&b, "%10.3f ┤\n", minY)
	// Legend.
	for si, s := range series {
		fmt.Fprintf(&b, "  %c = %s\n", marks[si%len(marks)], s.Label)
	}
	return b.String()
}

// downsample bucket-averages ys to at most n points.
func downsample(ys []float64, n int) []float64 {
	out := make([]float64, 0, n)
	per := float64(len(ys)) / float64(n)
	for i := 0; i < n; i++ {
		lo := int(float64(i) * per)
		hi := int(float64(i+1) * per)
		if hi > len(ys) {
			hi = len(ys)
		}
		if lo >= hi {
			continue
		}
		sum := 0.0
		for _, y := range ys[lo:hi] {
			sum += y
		}
		out = append(out, sum/float64(hi-lo))
	}
	return out
}
