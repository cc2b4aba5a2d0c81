// Package textplot renders simple ASCII scatter/line plots. The experiment
// harness uses it to reproduce the paper's "figures" in an offline,
// dependency-free environment: every figure an experiment reports is a
// textplot plus the underlying CSV rows.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named sequence of (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Options controls the rendering.
type Options struct {
	Title  string
	XLabel string
	YLabel string
	Width  int  // plot area columns (default 64)
	Height int  // plot area rows (default 20)
	LogX   bool // logarithmic x axis (points with x ≤ 0 are skipped)
	LogY   bool // logarithmic y axis (points with y ≤ 0 are skipped)
}

// markers cycle across series.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '~'}

// Render draws the series into a string. Degenerate input (no finite
// points) yields a short note instead of a panic.
func Render(series []Series, opt Options) string {
	width := opt.Width
	if width <= 0 {
		width = 64
	}
	height := opt.Height
	if height <= 0 {
		height = 20
	}

	tx := func(x float64) (float64, bool) { return transform(x, opt.LogX) }
	ty := func(y float64) (float64, bool) { return transform(y, opt.LogY) }

	// Determine data ranges over transformed coordinates.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	usable := 0
	for _, s := range series {
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			x, okx := tx(s.X[i])
			y, oky := ty(s.Y[i])
			if !okx || !oky {
				continue
			}
			usable++
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if usable == 0 {
		return fmt.Sprintf("%s\n  (no plottable points)\n", opt.Title)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			x, okx := tx(s.X[i])
			y, oky := ty(s.Y[i])
			if !okx || !oky {
				continue
			}
			col := int((x - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((y-minY)/(maxY-minY)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = mark
			}
		}
	}

	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	yHiLabel := axisLabel(maxY, opt.LogY)
	yLoLabel := axisLabel(minY, opt.LogY)
	labelWidth := len(yHiLabel)
	if len(yLoLabel) > labelWidth {
		labelWidth = len(yLoLabel)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", labelWidth)
		switch i {
		case 0:
			label = pad(yHiLabel, labelWidth)
		case height - 1:
			label = pad(yLoLabel, labelWidth)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", labelWidth), strings.Repeat("-", width))
	xLo := axisLabel(minX, opt.LogX)
	xHi := axisLabel(maxX, opt.LogX)
	gap := width - len(xLo) - len(xHi)
	if gap < 1 {
		gap = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", labelWidth), xLo, strings.Repeat(" ", gap), xHi)
	if opt.XLabel != "" || opt.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s\n", strings.Repeat(" ", labelWidth), opt.XLabel, opt.YLabel)
	}
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	fmt.Fprintf(&b, "%s  legend: %s\n", strings.Repeat(" ", labelWidth), strings.Join(legend, "   "))
	return b.String()
}

func transform(v float64, log bool) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	if !log {
		return v, true
	}
	if v <= 0 {
		return 0, false
	}
	return math.Log10(v), true
}

// axisLabel formats an axis endpoint, undoing the log transform for
// display.
func axisLabel(v float64, log bool) string {
	if log {
		return fmt.Sprintf("%.3g", math.Pow(10, v))
	}
	return fmt.Sprintf("%.3g", v)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}
