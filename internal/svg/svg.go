// Package svg renders road networks and discovered motion paths as SVG
// documents, reproducing the qualitative figures of the paper (Figure 6:
// the network; Figure 9: all discovered paths; Figure 10: the top-20
// hottest paths in the city centre). Hotter paths are drawn thicker, as in
// the paper.
package svg

import (
	"fmt"
	"sort"
	"strings"

	"hotpaths/internal/geom"
	"hotpaths/internal/motion"
	"hotpaths/internal/roadnet"
)

// Options controls rendering.
type Options struct {
	WidthPx    int       // output width in pixels (height follows aspect), default 800
	Crop       geom.Rect // if valid and non-zero, restrict drawing to this region
	Background string    // CSS colour, default "white"
}

func (o *Options) applyDefaults() {
	if o.WidthPx == 0 {
		o.WidthPx = 800
	}
	if o.Background == "" {
		o.Background = "white"
	}
}

// canvas maps world coordinates into pixel space with y flipped (SVG's y
// grows downward).
type canvas struct {
	world geom.Rect
	scale float64
	hPx   float64
}

func newCanvas(world geom.Rect, widthPx int) canvas {
	w := world.Width()
	if w == 0 {
		w = 1
	}
	scale := float64(widthPx) / w
	return canvas{world: world, scale: scale, hPx: world.Height() * scale}
}

// pt maps p to pixels. The conversion rounds the product before the
// difference, so no architecture fuses the two (see geom.Point.Lerp).
func (c canvas) pt(p geom.Point) (x, y float64) {
	return (p.X - c.world.Lo.X) * c.scale, c.hPx - float64((p.Y-c.world.Lo.Y)*c.scale)
}

// RenderNetwork draws the road network, colour-coded by class (Figure 6).
func RenderNetwork(net *roadnet.Network, opts Options) string {
	opts.applyDefaults()
	world := pickWorld(opts, net.Bounds())
	c := newCanvas(world, opts.WidthPx)
	var b strings.Builder
	header(&b, opts, c)
	for _, l := range net.Links {
		a, bb := net.Nodes[l.From].P, net.Nodes[l.To].P
		if !world.Intersects(geom.RectFromPoints(a, bb)) {
			continue
		}
		x1, y1 := c.pt(a)
		x2, y2 := c.pt(bb)
		colour, width := classStyle(l.Class)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n",
			x1, y1, x2, y2, colour, width)
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func classStyle(cl roadnet.Class) (colour string, width float64) {
	switch cl {
	case roadnet.Motorway:
		return "#c0392b", 2.5
	case roadnet.Highway:
		return "#e67e22", 2.0
	case roadnet.Primary:
		return "#7f8c8d", 1.2
	default:
		return "#bdc3c7", 0.6
	}
}

// RenderHotPaths draws motion paths with stroke width scaled by hotness
// (Figures 9 and 10). bounds gives the world extent when Crop is unset.
func RenderHotPaths(paths []motion.HotPath, bounds geom.Rect, opts Options) string {
	opts.applyDefaults()
	world := pickWorld(opts, bounds)
	c := newCanvas(world, opts.WidthPx)
	maxHot := 1
	for _, hp := range paths {
		if hp.Hotness > maxHot {
			maxHot = hp.Hotness
		}
	}
	// Draw coldest first so hot paths stay visible.
	sorted := append([]motion.HotPath(nil), paths...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Hotness < sorted[j].Hotness })

	var b strings.Builder
	header(&b, opts, c)
	for _, hp := range sorted {
		seg := hp.Path.Segment()
		if !world.Intersects(seg.MBB()) {
			continue
		}
		x1, y1 := c.pt(seg.A)
		x2, y2 := c.pt(seg.B)
		frac := float64(hp.Hotness) / float64(maxHot)
		width := 0.8 + float64(4.2*frac)
		// Shade from light blue (cold) to dark red (hot).
		r := int(40 + float64(180*frac))
		g := int(60 * (1 - frac))
		bl := int(200 * (1 - frac))
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="rgb(%d,%d,%d)" stroke-width="%.1f" stroke-linecap="round"/>`+"\n",
			x1, y1, x2, y2, r, g, bl, width)
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func pickWorld(opts Options, fallback geom.Rect) geom.Rect {
	if opts.Crop.Valid() && opts.Crop.Area() > 0 {
		return opts.Crop
	}
	if fallback.Area() == 0 {
		return geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1, 1)}
	}
	return fallback
}

func header(b *strings.Builder, opts Options, c canvas) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%.0f" viewBox="0 0 %d %.0f">`+"\n",
		opts.WidthPx, c.hPx, opts.WidthPx, c.hPx)
	fmt.Fprintf(b, `<rect width="100%%" height="100%%" fill="%s"/>`+"\n", opts.Background)
}
