package trace

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Format identifies an on-disk trace encoding.
type Format uint8

const (
	// FormatDin is the Dinero text format (".din").
	FormatDin Format = iota
	// FormatBin is the DTB1 delta-encoded binary format (".dtb").
	FormatBin
)

// DetectFormat guesses the encoding from a file name. ".gz" suffixes are
// stripped first; unknown extensions default to the din text format, the
// common interchange format.
func DetectFormat(name string) Format {
	name = strings.TrimSuffix(name, ".gz")
	if strings.HasSuffix(name, ".dtb") {
		return FormatBin
	}
	return FormatDin
}

// OpenFile opens a trace file for streaming reads, transparently
// decompressing ".gz" files and selecting the decoder from the file name.
// A ".gz" file cut short fails with a *TruncatedError, like any other
// truncated trace. The returned closer must be closed by the caller.
func OpenFile(name string) (Reader, io.Closer, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, nil, err
	}
	var src io.Reader = f
	closers := multiCloser{f}
	if strings.HasSuffix(name, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("trace: opening %s: %w", name, gzipTruncated(err, 0))
		}
		gzr := &gzipReader{gz: gz}
		closers = append(closers, gzr)
		src = gzr
	}
	switch DetectFormat(name) {
	case FormatBin:
		return NewBinReader(src), closers, nil
	default:
		return NewDinReader(src), closers, nil
	}
}

// gzipReader passes a gzip stream through, reporting a stream that ends
// early as a *TruncatedError instead of gzip's bare io.ErrUnexpectedEOF.
type gzipReader struct {
	gz  *gzip.Reader
	off int64 // decompressed bytes delivered
}

func (g *gzipReader) Read(p []byte) (int, error) {
	n, err := g.gz.Read(p)
	g.off += int64(n)
	return n, gzipTruncated(err, g.off)
}

func (g *gzipReader) Close() error { return g.gz.Close() }

// gzipTruncated wraps gzip's io.ErrUnexpectedEOF, which it returns for
// a stream cut short, as a *TruncatedError at decompressed offset off;
// errors.Is(err, io.ErrUnexpectedEOF) still holds. Other errors pass
// through.
func gzipTruncated(err error, off int64) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return &TruncatedError{Format: "gzip", Offset: off, Err: err}
	}
	return err
}

// CreateFile creates a trace file for writing, selecting the encoder and
// optional gzip compression from the file name. Close the returned closer
// to flush all layers.
func CreateFile(name string) (Writer, io.Closer, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, nil, err
	}
	var dst io.Writer = f
	var closers multiCloser
	if strings.HasSuffix(name, ".gz") {
		gz := gzip.NewWriter(f)
		closers = append(closers, gz)
		dst = gz
	}
	var w Writer
	switch DetectFormat(name) {
	case FormatBin:
		bw := NewBinWriter(dst)
		closers = append(multiCloser{closeFunc(bw.Flush)}, closers...)
		w = bw
	default:
		dw := NewDinWriter(dst)
		closers = append(multiCloser{closeFunc(dw.Flush)}, closers...)
		w = dw
	}
	closers = append(closers, f)
	return w, closers, nil
}

// multiCloser closes a stack of resources in order, returning the first
// error while still closing the rest.
type multiCloser []io.Closer

func (m multiCloser) Close() error {
	var first error
	for _, c := range m {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// closeFunc adapts a function, such as a Flush method, to io.Closer.
type closeFunc func() error

func (f closeFunc) Close() error { return f() }
