package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file crash-safely: the content goes to a
// temporary file in the same directory, is fsynced, renamed over path, and
// the directory entry is fsynced. A crash at any point leaves either the
// old file or the new one, never a torn mix — rename alone does not give
// that, because the data pages and the directory entry can hit disk in
// either order.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: creating temp for %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 256<<10)
	if err = write(bw); err != nil {
		return fmt.Errorf("wal: writing %s: %w", path, err)
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("wal: flushing %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("wal: closing %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: renaming %s: %w", path, err)
	}
	return syncPath(dir)
}

// syncPath fsyncs a file, or a directory, which makes its entries
// (renames, creations, removals) durable.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", path, err)
	}
	return nil
}
