package textdb

import (
	"bufio"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces the file at path with what write produces, so
// that a reader finds either the previous file or the complete new one.
// The bytes go to a temporary file in the same directory, which is
// flushed, fsynced and closed before it is renamed over path; the
// directory is fsynced last so that the rename survives a crash too. On
// any error the temporary file is removed and the previous file is left
// as it was.
func WriteFileAtomic(path string, write func(w *bufio.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // the error being returned matters more; a second Close is harmless
			os.Remove(f.Name())
		}
	}()
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
