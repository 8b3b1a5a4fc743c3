package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func sampleRecord() RunRecord {
	return RunRecord{
		Experiment:               "cv",
		Dataset:                  "PC",
		Size:                     "40%",
		Test:                     3,
		Seed:                     20080407,
		Config:                   map[string]float64{"tests": 5, "cutoff_ms": 8000, "min_support": 0.7, "k": 10, "nl": 20},
		PhasesMS:                 map[string]float64{"discretize": 12.5, "bstc/build": 3.25, "rcbt/topk": 950},
		Counters:                 map[string]int64{"carminer.topk.nodes": 5432, "core.bstce.evals": 100},
		BSTCAccuracy:             Float64Ptr(0.9375),
		TopkDNF:                  true,
		NLUsed:                   20,
		GenesAfterDiscretization: 77,
	}
}

func TestRunRecordRoundTripsThroughJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLog(&buf)
	want := sampleRecord()
	l.Emit(want)

	line := strings.TrimSpace(buf.String())
	if strings.Count(line, "\n") != 0 {
		t.Fatalf("expected exactly one JSONL line, got %q", buf.String())
	}
	var envelope struct {
		Level string    `json:"level"`
		Msg   string    `json:"msg"`
		Run   RunRecord `json:"run"`
	}
	if err := json.Unmarshal([]byte(line), &envelope); err != nil {
		t.Fatalf("runlog line is not valid JSON: %v\n%s", err, line)
	}
	if envelope.Msg != "run" || envelope.Level != "INFO" {
		t.Errorf("envelope = %q/%q", envelope.Level, envelope.Msg)
	}
	if !reflect.DeepEqual(envelope.Run, want) {
		t.Errorf("record did not round-trip:\n got %+v\nwant %+v", envelope.Run, want)
	}
}

func TestRunLogNilAndOmitEmpty(t *testing.T) {
	var l *RunLog
	l.Emit(sampleRecord()) // must not panic
	if err := l.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}

	var buf bytes.Buffer
	NewRunLog(&buf).Emit(RunRecord{Experiment: "cv", Test: 0, Seed: 1})
	line := buf.String()
	for _, absent := range []string{"phases_ms", "counters", "error", "topk_dnf", "bstc_accuracy"} {
		if strings.Contains(line, absent) {
			t.Errorf("empty field %q should be omitted: %s", absent, line)
		}
	}
}

func TestOpenRunLogWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := OpenRunLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := sampleRecord()
			rec.Test = i
			l.Emit(rec)
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var probe map[string]any
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("line %d invalid JSON: %v", lines, err)
		}
	}
	if lines != n {
		t.Errorf("got %d JSONL lines, want %d (concurrent Emit must not interleave)", lines, n)
	}
}
