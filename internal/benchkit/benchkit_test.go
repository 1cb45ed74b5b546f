package benchkit

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func readFile(t *testing.T, path string) File {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc File
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestWriteFileReplacesCurrent: every write leaves exactly its own run
// under current, with no rows carried over from an earlier write.
func TestWriteFileReplacesCurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scaling.json")
	first := []Result{{Name: "A", Iterations: 1, NsPerOp: 100}, {Name: "B", Iterations: 1, NsPerOp: 5}}
	if err := WriteFile(path, "first", first); err != nil {
		t.Fatal(err)
	}
	doc := readFile(t, path)
	if doc.Schema != schema || doc.Current == nil || doc.Current.Note != "first" || len(doc.Current.Results) != 2 {
		t.Fatalf("first write: %+v", doc)
	}
	if doc.Current.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("gomaxprocs = %d, want %d", doc.Current.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}

	second := []Result{{Name: "A", Iterations: 1, NsPerOp: 90}}
	if err := WriteFile(path, "second", second); err != nil {
		t.Fatal(err)
	}
	doc = readFile(t, path)
	if doc.Current.Note != "second" || len(doc.Current.Results) != 1 || doc.Current.Results[0].NsPerOp != 90 {
		t.Fatalf("second write: %+v", doc.Current)
	}
}
