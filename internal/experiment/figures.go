package experiment

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
)

// Figure is one rendered paper artifact: a set of per-algorithm series
// over the cache-size axis.
type Figure struct {
	ID     string   `json:"id"` // "fig4" … "fig11", "table2"
	Title  string   `json:"title"`
	Unit   string   `json:"unit"`
	Sizes  []int    `json:"cache_sizes_mb"`
	Series []Series `json:"series"`
}

// Series is one curve (or bar group) of a figure.
type Series struct {
	Alg    string    `json:"algorithm"`
	Values []float64 `json:"values"` // aligned with Figure.Sizes
}

// figureDefs maps each paper artifact to its matrix and metric.
var figureDefs = map[string]struct {
	fs     FSKind
	wl     WorkloadKind
	title  string
	unit   string
	metric func(Result) float64
	algs   func() []core.AlgSpec
}{
	"fig4":  {PAFS, Charisma, "Average read time, CHARISMA on PAFS (paper Fig. 4)", "ms", func(r Result) float64 { return r.AvgReadMs }, core.StandardAlgorithms},
	"fig5":  {XFS, Charisma, "Average read time, CHARISMA on xFS (paper Fig. 5)", "ms", func(r Result) float64 { return r.AvgReadMs }, core.StandardAlgorithms},
	"fig6":  {PAFS, Sprite, "Average read time, Sprite on PAFS (paper Fig. 6)", "ms", func(r Result) float64 { return r.AvgReadMs }, core.StandardAlgorithms},
	"fig7":  {XFS, Sprite, "Average read time, Sprite on xFS (paper Fig. 7)", "ms", func(r Result) float64 { return r.AvgReadMs }, core.StandardAlgorithms},
	"fig8":  {PAFS, Charisma, "Disk accesses, CHARISMA on PAFS (paper Fig. 8)", "accesses", func(r Result) float64 { return float64(r.DiskAccesses) }, diskFigureAlgs},
	"fig9":  {XFS, Charisma, "Disk accesses, CHARISMA on xFS (paper Fig. 9)", "accesses", func(r Result) float64 { return float64(r.DiskAccesses) }, diskFigureAlgs},
	"fig10": {PAFS, Sprite, "Disk accesses, Sprite on PAFS (paper Fig. 10)", "accesses", func(r Result) float64 { return float64(r.DiskAccesses) }, diskFigureAlgs},
	"fig11": {XFS, Sprite, "Disk accesses, Sprite on xFS (paper Fig. 11)", "accesses", func(r Result) float64 { return float64(r.DiskAccesses) }, diskFigureAlgs},
	"table2": {PAFS, Charisma, "Times a block is written to disk, CHARISMA on PAFS (paper Table 2)", "writes/block",
		func(r Result) float64 { return r.WritesPerBlock }, diskFigureAlgs},
}

// diskFigureAlgs: Figures 8–11 plot, and Table 2 lists, NP (the
// reference line) and the three linear aggressive algorithms.
func diskFigureAlgs() []core.AlgSpec {
	return append([]core.AlgSpec{core.SpecNP}, core.AggressiveAlgorithms()...)
}

// FigureIDs returns every artifact ID in paper order.
func FigureIDs() []string {
	return []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table2"}
}

// MatrixKeyForFigure returns which (fs, workload) matrix a figure
// reads from, so callers can share matrices across figures.
func MatrixKeyForFigure(id string) (FSKind, WorkloadKind, error) {
	def, ok := figureDefs[id]
	if !ok {
		return 0, 0, fmt.Errorf("experiment: unknown figure %q", id)
	}
	return def.fs, def.wl, nil
}

// BuildFigure extracts a paper artifact from a matrix previously
// produced by Run over at least the figure's algorithms.
func BuildFigure(id string, m *Matrix) (Figure, error) {
	def, ok := figureDefs[id]
	if !ok {
		return Figure{}, fmt.Errorf("experiment: unknown figure %q", id)
	}
	if m.FS != def.fs || m.Workload != def.wl {
		return Figure{}, fmt.Errorf("experiment: figure %s needs %s/%s, matrix is %s/%s",
			id, def.wl, def.fs, m.Workload, m.FS)
	}
	fig := Figure{ID: id, Title: def.title, Unit: def.unit, Sizes: m.CacheSizesMB}
	for _, spec := range def.algs() {
		name := spec.Name()
		s := Series{Alg: name}
		for _, mb := range m.CacheSizesMB {
			r, ok := m.Get(name, mb)
			if !ok {
				return Figure{}, fmt.Errorf("experiment: matrix missing %s @ %dMB for %s", name, mb, id)
			}
			s.Values = append(s.Values, def.metric(r))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Render formats the figure as an aligned text table, one row per
// algorithm, one column per cache size.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%s]\n", f.Title, f.Unit)
	fmt.Fprintf(&b, "%-18s", "algorithm")
	for _, mb := range f.Sizes {
		fmt.Fprintf(&b, "%10s", fmt.Sprintf("%dMB", mb))
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-18s", s.Alg)
		for _, v := range s.Values {
			if f.Unit == "accesses" {
				fmt.Fprintf(&b, "%10.0f", v)
			} else {
				fmt.Fprintf(&b, "%10.3f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Value returns one point of the figure.
func (f Figure) Value(alg string, cacheMB int) (float64, bool) {
	col := -1
	for i, mb := range f.Sizes {
		if mb == cacheMB {
			col = i
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, s := range f.Series {
		if s.Alg == alg {
			return s.Values[col], true
		}
	}
	return 0, false
}

// Table1 renders the simulation-parameter table (paper Table 1).
func Table1() string { return machine.Table1() }
