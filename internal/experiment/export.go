package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// WriteCSV emits the figure as comma-separated values: a header row of
// cache sizes, then one row per algorithm. Ready for any plotting
// tool.
func (f Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"algorithm"}
	for _, mb := range f.Sizes {
		header = append(header, fmt.Sprintf("%dMB", mb))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range f.Series {
		row := []string{s.Alg}
		for _, v := range s.Values {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the figure as a JSON document, under the tags Figure
// and Series declare.
func (f Figure) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// MarshalJSON flattens the result into one record: the cell's names,
// then every metric under its tag.
func (r Result) MarshalJSON() ([]byte, error) {
	type metrics Result // the fields and tags without this method
	return json.Marshal(struct {
		FS       string `json:"fs"`
		Workload string `json:"workload"`
		Alg      string `json:"algorithm"`
		CacheMB  int    `json:"cache_mb"`
		metrics
	}{r.Cell.FS.String(), r.Cell.Workload.String(), r.Cell.Alg.Name(), r.Cell.CacheMB, metrics(r)})
}

// JSONLTracer is a sim.Tracer that streams every record as one JSON
// line (the lapsim -trace-out format). Encoding errors are sticky and
// surfaced by Err, because Record sits on the simulator's hot path and
// cannot return one.
type JSONLTracer struct {
	enc *json.Encoder
	err error
	n   uint64
}

// NewJSONLTracer wraps w; the caller owns buffering and closing.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{enc: json.NewEncoder(w)}
}

// Record implements sim.Tracer.
func (t *JSONLTracer) Record(rec sim.TraceRecord) {
	if t.err != nil {
		return
	}
	t.n++
	t.err = t.enc.Encode(rec)
}

// Records returns how many records were written.
func (t *JSONLTracer) Records() uint64 { return t.n }

// Err returns the first write error, if any.
func (t *JSONLTracer) Err() error { return t.err }
