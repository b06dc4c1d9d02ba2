package textdb

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomicFailureKeepsPrevious: a write that fails midway
// returns its error, leaves no temporary file behind and keeps the
// previous file intact, even when part of the new bytes were already
// flushed to the temporary file.
func TestWriteFileAtomicFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := WriteFileAtomic(path, func(w *bufio.Writer) error {
		_, err := w.WriteString("previous")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w *bufio.Writer) error {
		w.WriteString("partial replacement")
		if err := w.Flush(); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only state", names)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "previous" {
		t.Fatalf("state = %q, want the previous contents", got)
	}
}
