// Partition: renders Figure 5 of the paper — the KD-HIERARCHY partition of
// a two-dimensional key set — as ASCII art, for a uniform grid (the paper's
// Fig. 5a setting: 64 keys with probability 1/2 each) and for a skewed set.
//
// Run with: go run ./examples/partition
package main

import (
	"fmt"
	"log"
	"slices"
	"strings"

	"structaware/internal/kd"
	"structaware/internal/structure"
	"structaware/internal/xmath"
)

func main() {
	fmt.Println("KD-HIERARCHY partition of 64 uniform keys (p=1/2 each), 32×32 domain:")
	uniform()
	fmt.Println("\nKD-HIERARCHY partition of a skewed key set (mass-balanced cells):")
	skewed()
}

func uniform() {
	axes := []structure.Axis{structure.OrderedAxis(5), structure.OrderedAxis(5)}
	var pts [][]uint64
	var ws []float64
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			pts = append(pts, []uint64{uint64(x * 4), uint64(y * 4)})
			ws = append(ws, 1)
		}
	}
	render(axes, pts, ws, 32)
}

func skewed() {
	r := xmath.NewRand(5)
	axes := []structure.Axis{structure.OrderedAxis(5), structure.OrderedAxis(5)}
	var pts [][]uint64
	var ws []float64
	seen := map[[2]uint64]bool{}
	for len(pts) < 40 {
		// Cluster in the lower-left quadrant.
		x := r.Uint64() % 16
		y := r.Uint64() % 16
		if r.Float64() < 0.3 {
			x = r.Uint64() % 32
			y = r.Uint64() % 32
		}
		if seen[[2]uint64{x, y}] {
			continue
		}
		seen[[2]uint64{x, y}] = true
		pts = append(pts, []uint64{x, y})
		ws = append(ws, 1)
	}
	render(axes, pts, ws, 32)
}

func render(axes []structure.Axis, pts [][]uint64, ws []float64, n int) {
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		log.Fatal(err)
	}
	items := make([]int, ds.Len())
	p := make([]float64, ds.Len())
	for i := range items {
		items[i] = i
		p[i] = 0.5
	}
	tree, err := kd.Build(ds, items, p, kd.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Each cell's box: the root's is the whole domain, and every cell
	// follows its children in tree.Cells, so a walk from the end splits a
	// box before it reaches the children's.
	boxes := make([]structure.Range, len(tree.Cells))
	boxes[len(boxes)-1] = ds.FullRange()
	for c := len(tree.Cells) - 1; c >= 0; c-- {
		if cell := tree.Cells[c]; cell.Axis >= 0 {
			left, right := slices.Clone(boxes[c]), slices.Clone(boxes[c])
			left[cell.Axis].Hi, right[cell.Axis].Lo = cell.Split, cell.Split+1
			boxes[cell.Left], boxes[cell.Right] = left, right
		}
	}

	// Character grid: leaf borders via box boundaries, keys as '*'.
	grid := make([][]byte, n)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", n))
	}
	for c, reg := range boxes {
		if tree.Cells[c].Axis >= 0 {
			continue
		}
		for x := reg[0].Lo; x <= reg[0].Hi && x < uint64(n); x++ {
			mark(grid, x, reg[1].Lo, '-')
			mark(grid, x, reg[1].Hi, '-')
		}
		for y := reg[1].Lo; y <= reg[1].Hi && y < uint64(n); y++ {
			mark(grid, reg[0].Lo, y, '|')
			mark(grid, reg[0].Hi, y, '|')
		}
	}
	for i := 0; i < ds.Len(); i++ {
		grid[ds.Coords[1][i]][ds.Coords[0][i]] = '*'
	}
	for y := n - 1; y >= 0; y-- { // origin at bottom-left
		fmt.Printf("  %s\n", grid[y])
	}
	fmt.Printf("  (%d keys, %d cells, tree depth %d)\n", ds.Len(), tree.NumLeaves(), tree.MaxDepth())
}

func mark(grid [][]byte, x, y uint64, c byte) {
	if y >= uint64(len(grid)) || x >= uint64(len(grid[0])) {
		return
	}
	cur := grid[y][x]
	switch {
	case cur == ' ':
		grid[y][x] = c
	case cur != c && cur != '*':
		grid[y][x] = '+'
	}
}
