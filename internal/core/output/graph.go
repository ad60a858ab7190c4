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

// line is one overlaid series as a graph reads it: extent boxes its
// value points between two times (a zero time leaves that end open),
// and each walks them in time order.
type line struct {
	name   string
	extent func(from, to time.Time) extent
	each   func(fn func(t time.Time, v float64))
}

// extent is the box around some value points: their earliest and latest
// times and their least and greatest values. ok is false while it holds
// none.
type extent struct {
	xMin, xMax time.Time
	yMin, yMax float64
	ok         bool
}

// add grows e to hold o.
func (e *extent) add(o extent) {
	switch {
	case !o.ok:
	case !e.ok:
		*e = o
	default:
		if o.xMin.Before(e.xMin) {
			e.xMin = o.xMin
		}
		if o.xMax.After(e.xMax) {
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
	each := func(fn func(time.Time, float64)) {
		for i, tm := range s.Times {
			fn(tm, s.Values[i])
		}
	}
	g.series = append(g.series, line{name: name, each: each, extent: func(from, to time.Time) (e extent) {
		each(func(tm time.Time, v float64) {
			if (from.IsZero() || !tm.Before(from)) && (to.IsZero() || !tm.After(to)) {
				e.add(extent{tm, tm, v, v, true})
			}
		})
		return e
	}})
}

// overlayStored adds one series of a compressed store without copying
// it out: the extent comes from the store's aggregate, which reads the
// sealed blocks' headers, and each decodes a block at a time, so what a
// graph of a long history costs stays flat in its length.
func (g *Graph) overlayStored(name string, st *tsdb.Store, target, metric string) {
	g.series = append(g.series, line{name: name, extent: func(from, to time.Time) extent {
		q := tsdb.Query{Metric: metric, Op: tsdb.OpMax}
		if !from.IsZero() {
			q.From = from.UnixNano()
		}
		if !to.IsZero() {
			q.To = to.UnixNano()
		}
		res, err := st.QueryTarget(q, target)
		if a := res.Agg; err == nil && a != nil {
			return extent{time.Unix(0, a.FirstT), time.Unix(0, a.LastT), a.Min, a.Max, true}
		}
		return extent{}
	}, each: func(fn func(time.Time, float64)) {
		// Self-sealed blocks always decode.
		_ = st.Scan(target, metric, func(pts []tsdb.Point) {
			for _, pt := range pts {
				if !pt.Gap {
					fn(time.Unix(0, pt.T), pt.V)
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

// bounds computes effective axis ranges.
func (g *Graph) bounds() (xMin, xMax time.Time, yMin, yMax float64, ok bool) {
	var all extent
	for _, l := range g.series {
		all.add(l.extent(g.xMin, g.xMax))
	}
	if !all.ok {
		return time.Time{}, time.Time{}, 0, 0, false
	}
	xMin, xMax, yMin, yMax = all.xMin, all.xMax, all.yMin, all.yMax
	if !g.xMin.IsZero() {
		xMin = g.xMin
	}
	if !g.xMax.IsZero() {
		xMax = g.xMax
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
	span := xMax.Sub(xMin)
	for si, l := range g.series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		l.each(func(tm time.Time, v float64) {
			if tm.Before(xMin) || tm.After(xMax) || v < yMin || v > yMax {
				return
			}
			var x int
			if span > 0 {
				x = int(float64(width-1) * float64(tm.Sub(xMin)) / float64(span))
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
	fmt.Fprintf(w, "%10s  %-*s%s\n", "", width-len(xMax.UTC().Format("01/02"))+1,
		xMin.UTC().Format("2006-01-02"), xMax.UTC().Format("01/02"))
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
// the data processor emits for chart plotting.
func (g *Graph) Points(seriesIdx int) (xs []time.Time, ys []float64) {
	if seriesIdx < 0 || seriesIdx >= len(g.series) {
		return nil, nil
	}
	g.series[seriesIdx].each(func(tm time.Time, v float64) {
		if !g.xMin.IsZero() && tm.Before(g.xMin) {
			return
		}
		if !g.xMax.IsZero() && tm.After(g.xMax) {
			return
		}
		xs = append(xs, tm)
		ys = append(ys, v)
	})
	return xs, ys
}
