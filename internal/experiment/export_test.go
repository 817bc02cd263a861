package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func sampleFigure() Figure {
	return Figure{
		ID: "fig4", Title: "t", Unit: "ms", Sizes: []int{1, 4},
		Series: []Series{
			{Alg: "NP", Values: []float64{2.5, 2.0}},
			{Alg: "Ln_Agr_OBA", Values: []float64{1.25, 0.5}},
		},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleFigure().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "algorithm,1MB,4MB" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "NP,2.5,2" {
		t.Errorf("row = %q", lines[1])
	}
	if lines[2] != "Ln_Agr_OBA,1.25,0.5" {
		t.Errorf("row = %q", lines[2])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := sampleFigure()
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"id"`, `"title"`, `"unit"`, `"cache_sizes_mb"`, `"series"`, `"algorithm"`, `"values"`} {
		if !bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Errorf("document has no %s key:\n%s", key, buf.String())
		}
	}
	var got Figure
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("round trip lost something:\n got %+v\nwant %+v", got, orig)
	}
}
