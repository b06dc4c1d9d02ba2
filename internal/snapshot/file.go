package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/browse"
	"repro/internal/obsv"
	"repro/internal/textdb"
)

// Save writes the snapshot to path through textdb.WriteFileAtomic, so a
// crash leaves either the previous snapshot or the complete new one where
// a loader will find it. When reg is non-nil it records
// snapshot.save_duration and snapshot.size_bytes.
func Save(path string, s *Snapshot, reg *obsv.Registry) error {
	start := time.Now()
	data, err := Encode(s)
	if err != nil {
		return err
	}
	err = textdb.WriteFileAtomic(path, func(w *bufio.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	if reg != nil {
		reg.Histogram("snapshot.save_duration").Observe(time.Since(start))
		reg.Gauge("snapshot.size_bytes").Set(int64(len(data)))
	}
	return nil
}

// Load reads and decodes a snapshot file. When reg is non-nil it records
// snapshot.load_duration (read + decode, not rehydration).
func Load(path string, reg *obsv.Registry) (*Snapshot, error) {
	start := time.Now()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: load: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot: load %s: %w", path, err)
	}
	if reg != nil {
		reg.Histogram("snapshot.load_duration").Observe(time.Since(start))
		reg.Gauge("snapshot.size_bytes").Set(int64(len(data)))
	}
	return s, nil
}

// PeekEpochFile reports the ingest epoch of the snapshot at path by
// reading only the header and the first payload varint (see PeekEpoch).
// Replicas use it to answer since= freshness checks against an on-disk
// snapshot without deserializing the browse payload.
func PeekEpochFile(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("snapshot: peek: %w", err)
	}
	defer f.Close()
	// headerLen bytes of fixed prefix plus up to one maximal uvarint.
	buf := make([]byte, headerLen+binary.MaxVarintLen64)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF {
		return 0, fmt.Errorf("snapshot: peek %s: %w", path, err)
	}
	buf = buf[:n]
	// A snapshot shorter than the probe window is legal (tiny payload):
	// PeekEpoch's own truncation checks are authoritative, but its
	// payload-length validation needs the real file size, so substitute
	// the declared length check with the actual remaining size.
	epoch, perr := peekEpochPrefix(buf, fileSize(f))
	if perr != nil {
		return 0, fmt.Errorf("snapshot: peek %s: %w", path, perr)
	}
	return epoch, nil
}

func fileSize(f *os.File) int64 {
	st, err := f.Stat()
	if err != nil {
		return -1
	}
	return st.Size()
}

// LoadBrowse is the warm-start path: load the snapshot at path and
// rehydrate a ready-to-serve browsing interface from it without running
// any pipeline stage. Timings land in snapshot.load_duration and
// snapshot.rehydrate_duration.
func LoadBrowse(path string, reg *obsv.Registry) (*browse.Interface, *Snapshot, error) {
	s, err := Load(path, reg)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	iface, err := s.BrowseInterface()
	if err != nil {
		return nil, nil, err
	}
	if reg != nil {
		reg.Histogram("snapshot.rehydrate_duration").Observe(time.Since(start))
		iface.SetMetrics(reg)
	}
	return iface, s, nil
}
