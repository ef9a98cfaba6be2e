package tracefmt

import (
	"io"
	"os"

	"hpcfail/internal/failures"
)

// SniffMagic reports whether prefix begins with the binary-trace magic.
// Callers feed it the first HeaderLen bytes of a file to decide between
// the binary reader and the CSV reader without trusting extensions.
func SniffMagic(prefix []byte) bool {
	return len(prefix) >= len(magic) && string(prefix[:len(magic)]) == magic
}

// HeaderLen is how many leading bytes SniffMagic needs.
const HeaderLen = len(magic)

// SniffFile peeks at the leading bytes of f and reports whether they
// carry the binary-trace magic, rewinding f either way, so a caller can
// pick the binary or the CSV reader at any file name.
func SniffFile(f io.ReadSeeker) (bool, error) {
	var prefix [HeaderLen]byte
	n, err := io.ReadFull(f, prefix[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return false, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return false, err
	}
	return SniffMagic(prefix[:n]), nil
}

// ScanFileParallel scans the binary trace in f on workers block-decode
// goroutines: File.ScanParallel over the footer index when f is a
// regular file, the read-ahead NewScannerParallel otherwise (a pipe or
// device, which has no random access). Either way the records arrive
// in file order, so results are identical at any worker count. Close
// the returned scanner when done.
func ScanFileParallel(f *os.File, workers int) (*ParallelScanner, error) {
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
		tf, err := NewFile(f, st.Size())
		if err != nil {
			return nil, err
		}
		return tf.ScanParallel(ScanOptions{}, workers), nil
	}
	return NewScannerParallel(f, ScanOptions{})
}

// ReadDataset decodes an entire binary trace into a Dataset — the
// binary counterpart of failures.ReadCSV, for the in-memory analyses.
// Like ReadCSV it sorts on load, so a trace written in any record order
// loads into the identical dataset. Use a Scanner instead when the
// trace may not fit in memory.
func ReadDataset(r io.Reader) (*failures.Dataset, error) {
	s, err := NewScanner(r, ScanOptions{})
	if err != nil {
		return nil, err
	}
	var records []failures.Record
	for {
		batch, err := s.ScanBatch()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			return failures.NewDataset(records)
		}
		records = append(records, batch...)
	}
}
