package experiment

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// Suite runs matrices on demand and caches them, so the four
// (workload, fs) sweeps regenerate all nine paper artifacts.
type Suite struct {
	Scale    Scale
	Workers  int
	Progress io.Writer // optional: per-matrix progress lines

	matrices map[string]*Matrix
}

// NewSuite prepares a suite at the given scale.
func NewSuite(s Scale, workers int) *Suite {
	return &Suite{Scale: s, Workers: workers, matrices: make(map[string]*Matrix)}
}

func matrixKey(fs FSKind, wl WorkloadKind) string {
	return fmt.Sprintf("%s/%s", wl, fs)
}

// Matrix returns (running if needed) the full standard-algorithm sweep
// for one (fs, workload) pair. The standard sweep covers every figure
// that reads from the pair.
func (s *Suite) Matrix(fs FSKind, wl WorkloadKind) (*Matrix, error) {
	key := matrixKey(fs, wl)
	if m, ok := s.matrices[key]; ok {
		return m, nil
	}
	if s.Progress != nil {
		fmt.Fprintf(s.Progress, "running %s sweep (%d algorithms x %d cache sizes)...\n",
			key, len(core.StandardAlgorithms()), len(s.Scale.CacheSizesMB))
	}
	m, err := Run(s.Scale, fs, wl, core.StandardAlgorithms(), s.Workers)
	if err != nil {
		return nil, err
	}
	s.matrices[key] = m
	return m, nil
}

// Figure runs whatever the artifact needs and renders it.
func (s *Suite) Figure(id string) (Figure, error) {
	fs, wl, err := MatrixKeyForFigure(id)
	if err != nil {
		return Figure{}, err
	}
	m, err := s.Matrix(fs, wl)
	if err != nil {
		return Figure{}, err
	}
	return BuildFigure(id, m)
}

// RenderAll runs everything and renders every artifact in paper
// order. The in-text claims are graded by internal/report, from the
// same sweeps.
func (s *Suite) RenderAll() (string, error) {
	var b strings.Builder
	b.WriteString("Table 1: Simulation parameters (paper values)\n")
	b.WriteString(Table1())
	b.WriteByte('\n')
	for _, id := range FigureIDs() {
		fig, err := s.Figure(id)
		if err != nil {
			return "", err
		}
		b.WriteString(fig.Render())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// SummaryByAlg renders, for diagnostics, all scalar metrics of one
// matrix in sweep order.
func SummaryByAlg(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s\n", m.Workload, m.FS)
	for _, a := range m.AlgNames {
		for _, mb := range m.CacheSizesMB {
			r, ok := m.Get(a, mb)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-18s %2dMB  read=%7.3fms  disk=%8d (r=%d w=%d)  hit=%.2f  pf=%7d  fb=%.2f  mis=%.2f  T=%8.3fs\n",
				a, mb, r.AvgReadMs, r.DiskAccesses, r.DiskReads, r.DiskWrites,
				r.HitRatio, r.PrefetchIssued, r.FallbackFraction, r.MispredictionRatio,
				r.SimTime.Seconds())
		}
	}
	return b.String()
}
