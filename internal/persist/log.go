// Package persist is the disk tier under the in-memory caches: an
// append-only log of length-prefixed, checksummed binary records that a
// process replays on open to restart hot. The solve cache spills
// equilibria here keyed by core.SolveKey (EquilibriumStore). Records use
// the coordinator wire protocol's float packing — uvarints of
// bit-reversed IEEE-754 bits, delta-XOR float columns — so warm state is
// exact: bits in, bits out, byte-identical to a fresh solve (pinned by
// differential tests).
//
// Corruption is expected, never fatal. Each record carries a CRC-32C of
// its payload; on open the log is scanned record by record, and the
// first framing or checksum failure ends the usable prefix — the broken
// tail (typically a torn final write) is truncated so appends resume
// from the last good record. Records that frame correctly but carry an
// unknown kind or codec version are skipped by the typed stores, which
// is what lets an old binary open a newer file and vice versa.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"sync"
)

// logMagic opens every log file: "SGL" + format version. A file whose
// header does not match is treated as wholly unusable and reset, not an
// error — the disk tier is a cache, and an unreadable cache is an empty
// one.
var logMagic = [4]byte{'S', 'G', 'L', 1}

// MaxRecordPayload bounds one record, mirroring the wire protocol's
// 1 MiB frame guard (internal/coord, asserted equal by test): a
// declared length beyond it marks a corrupt prefix, and scanning stops
// rather than allocating gigabytes from garbage bytes.
const MaxRecordPayload = 1 << 20

// crcTable is Castagnoli, the hardware-accelerated polynomial.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// logFile is the slice of *os.File the log needs. An interface so tests
// can inject write failures; production logs always hold an *os.File.
type logFile interface {
	io.Writer
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Close() error
}

// Log is an append-only record log. One writer process at a time; Append
// is safe for concurrent use within it.
//
// A failed or short Append is repaired in place: the file is truncated
// back to the end of the last good record, so the partial frame can
// never sit in front of later appends (which the replay scan — which
// stops at the first corrupt record — would then silently discard).
// When even that repair fails the log is marked broken and every later
// Append errors loudly rather than poisoning the tail.
type Log struct {
	mu     sync.Mutex
	f      logFile
	off    int64  // offset just past the last good record
	broken bool   // an append failed and the tail could not be repaired
	buf    []byte // scratch for framing appends
	path   string
}

// OpenLog opens (creating if absent) the log at path and returns the
// usable records in append order, each as its own payload slice. A
// missing, empty, or header-corrupt file yields no records; a torn or
// corrupt tail is truncated so the next Append extends the good prefix.
func OpenLog(path string) (*Log, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	records, good, err := scanLog(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop everything past the last good record (or reset a file whose
	// header is unusable) and position for append.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	if good == 0 {
		if _, err := f.Write(logMagic[:]); err != nil {
			f.Close()
			return nil, nil, err
		}
		good = int64(len(logMagic))
	}
	return &Log{f: f, off: good, path: path}, records, nil
}

// scanLog reads the usable prefix: the records that frame and checksum
// correctly, and the offset just past the last of them. Only I/O errors
// other than EOF are returned; corruption ends the scan silently.
func scanLog(f *os.File) (records [][]byte, good int64, err error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, err
	}
	if len(data) == 0 {
		return nil, 0, nil
	}
	if len(data) < len(logMagic) || [4]byte(data[:4]) != logMagic {
		return nil, 0, nil // unusable header: reset the file
	}
	off := int64(len(logMagic))
	for {
		rec, n := nextRecord(data[off:])
		if n <= 0 {
			return records, off, nil
		}
		records = append(records, rec)
		off += int64(n)
	}
}

// nextRecord decodes one record from the front of b, returning the
// payload and the framed size consumed, or n <= 0 when b holds no
// complete, checksummed record (end of usable prefix).
func nextRecord(b []byte) (payload []byte, n int) {
	length, ln := binary.Uvarint(b)
	if ln <= 0 || length > MaxRecordPayload {
		return nil, 0
	}
	total := ln + 4 + int(length)
	if total > len(b) {
		return nil, 0 // torn tail
	}
	sum := binary.LittleEndian.Uint32(b[ln:])
	payload = b[ln+4 : total]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0
	}
	return payload, total
}

// Append frames payload (uvarint length, CRC-32C, bytes) and writes it.
// The OS page cache makes the record visible to a restarted process
// even after a kill; call Sync for power-loss durability.
//
// On a failed or short write the partial record is rolled back
// (truncate + reseek to the last good offset) before returning the
// error, so the next Append extends a clean tail. If the rollback
// itself fails the log is marked broken: the on-disk tail now hides
// every record appended behind the partial frame from the replay scan,
// and failing every later Append loudly beats discarding them silently.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecordPayload {
		return fmt.Errorf("persist: record of %d bytes exceeds limit", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("persist: log is closed")
	}
	if l.broken {
		return errors.New("persist: log is broken (unrepaired partial append)")
	}
	b := l.buf[:0]
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	b = append(b, payload...)
	l.buf = b
	n, err := l.f.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	if err != nil {
		if n > 0 {
			if terr := l.f.Truncate(l.off); terr != nil {
				l.broken = true
			} else if _, serr := l.f.Seek(l.off, io.SeekStart); serr != nil {
				l.broken = true
			}
		}
		return fmt.Errorf("persist: append: %w", err)
	}
	l.off += int64(n)
	return nil
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Close syncs and closes the log. Further Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// --- payload packing primitives ---
//
// Typed stores (EquilibriumStore) compose record payloads from these,
// with the same idiom the wire protocol uses. Encoding is exact: floats
// round-trip bit for bit.

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendUint64 appends a fixed 8-byte little-endian integer (for hash
// keys, which are uniformly random and do not compress under varints).
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendFloat packs one float64 as a uvarint of its bit-reversed bits:
// the exponent and high mantissa land in the low bytes, so "round"
// floats cost 3-5 bytes instead of 8.
func AppendFloat(b []byte, v float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(v)))
}

// AppendFloatColumn packs a float column with delta-XOR against the
// previous element (Gorilla-style): neighboring values share exponent
// and high mantissa bits, so the deltas pack small.
func AppendFloatColumn(b []byte, xs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	prev := uint64(0)
	for _, v := range xs {
		cur := math.Float64bits(v)
		b = binary.AppendUvarint(b, bits.ReverseBytes64(cur^prev))
		prev = cur
	}
	return b
}

// Dec is a bounds-checked cursor over one record payload. Every read
// validates against the remaining bytes, so a corrupt payload that
// passed its checksum (e.g. encoded by a buggy writer) surfaces as an
// error, never a panic or a huge allocation.
type Dec struct {
	b   []byte
	off int
}

// NewDec returns a cursor over payload.
func NewDec(payload []byte) *Dec { return &Dec{b: payload} }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// Uvarint reads one uvarint.
func (d *Dec) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, errors.New("persist: bad uvarint")
	}
	d.off += n
	return v, nil
}

// Byte reads one byte.
func (d *Dec) Byte() (byte, error) {
	if d.Remaining() < 1 {
		return 0, errors.New("persist: truncated payload")
	}
	c := d.b[d.off]
	d.off++
	return c, nil
}

// Uint64 reads a fixed 8-byte little-endian integer (used for hash
// keys, which do not compress under varint encoding).
func (d *Dec) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, errors.New("persist: truncated payload")
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

// String reads a length-prefixed string.
func (d *Dec) String() (string, error) {
	n, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.Remaining()) {
		return "", fmt.Errorf("persist: string length %d exceeds remaining %d bytes", n, d.Remaining())
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// Float reads one packed float64.
func (d *Dec) Float() (float64, error) {
	v, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits.ReverseBytes64(v)), nil
}

// FloatColumn reads one delta-XOR packed float column.
func (d *Dec) FloatColumn() ([]float64, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	// Each packed element is at least one byte, so a count beyond the
	// remaining payload is corrupt — reject before allocating.
	if n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("persist: column length %d exceeds remaining %d bytes", n, d.Remaining())
	}
	if n == 0 {
		return nil, nil
	}
	xs := make([]float64, n)
	prev := uint64(0)
	for i := range xs {
		v, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		cur := bits.ReverseBytes64(v) ^ prev
		xs[i] = math.Float64frombits(cur)
		prev = cur
	}
	return xs, nil
}
