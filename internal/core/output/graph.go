package output

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/core/process"
	"repro/internal/core/tsdb"
)

// line is one overlaid series as a graph reads it, times in unixnano:
// extent boxes its value points in [lo, hi], and each walks them in
// time order.
type line struct {
	name   string
	extent func(lo, hi int64) extent
	each   func(fn func(t int64, v float64))
}

// extent is the box around some value points: their earliest and latest
// times in unixnano and their least and greatest values. ok is false
// while it holds none.
type extent struct {
	xMin, xMax int64
	yMin, yMax float64
	ok         bool
}

// window returns a zoom's bounds in unixnano, an open end as the
// farthest instant on its side.
func window(from, to time.Time) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if !from.IsZero() {
		lo = from.UnixNano()
	}
	if !to.IsZero() {
		hi = to.UnixNano()
	}
	return lo, hi
}

// add grows e to hold o.
func (e *extent) add(o extent) {
	switch {
	case !o.ok:
	case !e.ok:
		*e = o
	default:
		if o.xMin < e.xMin {
			e.xMin = o.xMin
		}
		if o.xMax > e.xMax {
			e.xMax = o.xMax
		}
		if o.yMin < e.yMin {
			e.yMin = o.yMin
		}
		if o.yMax > e.yMax {
			e.yMax = o.yMax
		}
	}
}

// Graph is the two-dimensional line graph model: multiple overlaid
// series with interactive axis ranges (the zoom operation).
type Graph struct {
	Title  string
	YLabel string
	series []line
	// explicit ranges; zero values mean auto-scale.
	xMin, xMax time.Time
	yMin, yMax float64
	yRangeSet  bool
}

// NewGraph returns an empty graph.
func NewGraph(title, ylabel string) *Graph {
	return &Graph{Title: title, YLabel: ylabel}
}

// Overlay adds a series to the display — the paper's multi-graph overlay
// feature for analyzing relationships among variables.
func (g *Graph) Overlay(name string, s *process.Series) {
	each := func(fn func(int64, float64)) {
		for i, tm := range s.Times {
			fn(tm.UnixNano(), s.Values[i])
		}
	}
	g.series = append(g.series, line{name: name, each: each, extent: func(lo, hi int64) (e extent) {
		each(func(t int64, v float64) {
			if t >= lo && t <= hi {
				e.add(extent{t, t, v, v, true})
			}
		})
		return e
	}})
}

// overlayStored adds one series of a store view without copying
// it out: the extent comes from the store's aggregate, which reads the
// sealed blocks' headers, and each decodes a block at a time, so what a
// graph of a long history costs stays flat in its length.
func (g *Graph) overlayStored(name string, st *tsdb.View, target, metric string) {
	g.series = append(g.series, line{name: name, extent: func(lo, hi int64) extent {
		res, err := st.QueryTarget(tsdb.Query{Metric: metric, Op: tsdb.OpMax, From: lo, To: hi}, target)
		if a := res.Agg; err == nil && a != nil {
			return extent{a.FirstT, a.LastT, a.Min, a.Max, true}
		}
		return extent{}
	}, each: func(fn func(int64, float64)) {
		// Self-sealed blocks always decode.
		_ = st.Scan(target, metric, func(pts []tsdb.Point) {
			for _, pt := range pts {
				if !pt.Gap {
					fn(pt.T, pt.V)
				}
			}
		})
	}})
}

// SeriesCount returns the number of overlaid series.
func (g *Graph) SeriesCount() int { return len(g.series) }

// SetXRange zooms the time axis; zero times reset to auto.
func (g *Graph) SetXRange(min, max time.Time) {
	g.xMin, g.xMax = min, max
}

// SetYRange zooms the value axis.
func (g *Graph) SetYRange(min, max float64) {
	g.yMin, g.yMax = min, max
	g.yRangeSet = true
}

// ResetZoom restores auto-scaling on both axes.
func (g *Graph) ResetZoom() {
	g.xMin, g.xMax = time.Time{}, time.Time{}
	g.yRangeSet = false
}

// bounds computes effective axis ranges, times in unixnano.
func (g *Graph) bounds() (xMin, xMax int64, yMin, yMax float64, ok bool) {
	var all extent
	lo, hi := window(g.xMin, g.xMax)
	for _, l := range g.series {
		all.add(l.extent(lo, hi))
	}
	if !all.ok {
		return 0, 0, 0, 0, false
	}
	xMin, xMax, yMin, yMax = all.xMin, all.xMax, all.yMin, all.yMax
	if !g.xMin.IsZero() {
		xMin = lo
	}
	if !g.xMax.IsZero() {
		xMax = hi
	}
	if g.yRangeSet {
		yMin, yMax = g.yMin, g.yMax
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	return xMin, xMax, yMin, yMax, true
}

// seriesGlyphs mark overlaid series in the ASCII rendering.
var seriesGlyphs = []byte{'*', '+', 'o', 'x', '#', '@'}

// RenderASCII draws the graph into a width×height character grid.
func (g *Graph) RenderASCII(w io.Writer, width, height int) error {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	xMin, xMax, yMin, yMax, ok := g.bounds()
	if !ok {
		_, err := fmt.Fprintf(w, "%s: no data\n", g.Title)
		return err
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	span := xMax - xMin
	for si, l := range g.series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		l.each(func(t int64, v float64) {
			if t < xMin || t > xMax || v < yMin || v > yMax {
				return
			}
			var x int
			if span > 0 {
				x = int(float64(width-1) * float64(t-xMin) / float64(span))
			}
			y := height - 1 - int(float64(height-1)*(v-yMin)/(yMax-yMin))
			grid[y][x] = glyph
		})
	}
	fmt.Fprintf(w, "%s\n", g.Title)
	for i, row := range grid {
		label := ""
		switch i {
		case 0:
			label = trimNum(yMax)
		case height - 1:
			label = trimNum(yMin)
		}
		fmt.Fprintf(w, "%10s |%s|\n", label, string(row))
	}
	last := time.Unix(0, xMax).UTC().Format("01/02")
	fmt.Fprintf(w, "%10s  %-*s%s\n", "", width-len(last)+1, time.Unix(0, xMin).UTC().Format("2006-01-02"), last)
	var legend []string
	for si, l := range g.series {
		legend = append(legend, fmt.Sprintf("%c=%s", seriesGlyphs[si%len(seriesGlyphs)], l.name))
	}
	fmt.Fprintf(w, "%10s  [%s] %s\n", "", strings.Join(legend, " "), g.YLabel)
	return nil
}

func trimNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// Points returns the x-y coordinate data of one series within the current
// zoom — the "raw statistical results represented as x-y coordinate data"
// the data processor emits for chart plotting, times as UTC instants.
func (g *Graph) Points(seriesIdx int) (xs []time.Time, ys []float64) {
	if seriesIdx < 0 || seriesIdx >= len(g.series) {
		return nil, nil
	}
	lo, hi := window(g.xMin, g.xMax)
	g.series[seriesIdx].each(func(t int64, v float64) {
		if t >= lo && t <= hi {
			xs = append(xs, time.Unix(0, t).UTC())
			ys = append(ys, v)
		}
	})
	return xs, ys
}
