package persist

import (
	"encoding/binary"
	"fmt"

	"sprintgame/internal/core"
)

// EquilibriumStore is the solve cache's disk tier: every equilibrium
// the cache admits is appended as one record keyed by core.SolveKey,
// and OpenEquilibriumStore replays the log into a key → equilibrium map
// (newest record wins) so a restarted process warms the cache before
// serving its first request. The store implements core.EquilibriumStore
// and is safe for concurrent Put.
type EquilibriumStore struct {
	log     *Log
	skipped int
}

const (
	// recordKindEquilibrium tags equilibrium records in the shared log
	// format; other kinds in the same file are skipped, not errors.
	recordKindEquilibrium = 'E'
	// equilibriumCodecVersion versions the payload layout below. A
	// bumped writer leaves old readers skipping the new records (stale
	// cache, correct behaviour), never misdecoding them. Version 2
	// dropped the per-class value-iteration sweep count.
	equilibriumCodecVersion = 2
)

// OpenEquilibriumStore opens (creating if absent) the store at path and
// returns the replayed equilibria. Records that are corrupt, of a
// foreign kind, or of an unknown codec version are skipped; a torn tail
// is truncated. The returned equilibria are exact: DeepEqual to the
// solves that produced them.
func OpenEquilibriumStore(path string) (*EquilibriumStore, map[uint64]*core.Equilibrium, error) {
	log, records, err := OpenLog(path)
	if err != nil {
		return nil, nil, err
	}
	s := &EquilibriumStore{log: log}
	loaded := make(map[uint64]*core.Equilibrium, len(records))
	for _, rec := range records {
		key, eq, err := decodeEquilibriumRecord(rec)
		if err != nil {
			s.skipped++
			continue
		}
		loaded[key] = eq // newest record for a key wins
	}
	return s, loaded, nil
}

// Put appends one solved equilibrium. Errors are the caller's to
// aggregate — the cache treats a failed spill as a miss-on-restart, not
// a failed solve.
func (s *EquilibriumStore) Put(key uint64, eq *core.Equilibrium) error {
	return s.log.Append(appendEquilibriumRecord(nil, key, eq))
}

// Skipped returns the number of records dropped during replay (corrupt
// payloads that passed their checksum, foreign kinds, newer codecs).
func (s *EquilibriumStore) Skipped() int { return s.skipped }

// Path returns the store's log file path.
func (s *EquilibriumStore) Path() string { return s.log.Path() }

// Sync flushes appended records to stable storage.
func (s *EquilibriumStore) Sync() error { return s.log.Sync() }

// Close syncs and closes the underlying log.
func (s *EquilibriumStore) Close() error { return s.log.Close() }

// appendEquilibriumRecord encodes one record payload:
//
//	'E' | codec version | key (8 bytes LE) |
//	float ptrip | float sprinters | uvarint iterations | byte converged |
//	floatcol residuals | uvarint nClasses |
//	( str name | float threshold | float sprintProb | float activeFrac |
//	  float expectedSprinters | float vA | float vC | float vR |
//	  float vThreshold | float vPtrip )*
func appendEquilibriumRecord(b []byte, key uint64, eq *core.Equilibrium) []byte {
	b = append(b, recordKindEquilibrium, equilibriumCodecVersion)
	b = AppendUint64(b, key)
	b = AppendFloat(b, eq.Ptrip)
	b = AppendFloat(b, eq.Sprinters)
	b = binary.AppendUvarint(b, uint64(eq.Iterations))
	if eq.Converged {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = AppendFloatColumn(b, eq.Residuals)
	b = binary.AppendUvarint(b, uint64(len(eq.Classes)))
	for i := range eq.Classes {
		c := &eq.Classes[i]
		b = AppendString(b, c.Name)
		b = AppendFloat(b, c.Threshold)
		b = AppendFloat(b, c.SprintProb)
		b = AppendFloat(b, c.ActiveFrac)
		b = AppendFloat(b, c.ExpectedSprinters)
		b = AppendFloat(b, c.Values.VA)
		b = AppendFloat(b, c.Values.VC)
		b = AppendFloat(b, c.Values.VR)
		b = AppendFloat(b, c.Values.Threshold)
		b = AppendFloat(b, c.Values.Ptrip)
	}
	return b
}

// decodeEquilibriumRecord is the inverse of appendEquilibriumRecord.
func decodeEquilibriumRecord(payload []byte) (uint64, *core.Equilibrium, error) {
	d := NewDec(payload)
	kind, err := d.Byte()
	if err != nil {
		return 0, nil, err
	}
	if kind != recordKindEquilibrium {
		return 0, nil, fmt.Errorf("persist: record kind %q is not an equilibrium", kind)
	}
	ver, err := d.Byte()
	if err != nil {
		return 0, nil, err
	}
	if ver != equilibriumCodecVersion {
		return 0, nil, fmt.Errorf("persist: equilibrium codec version %d unsupported", ver)
	}
	key, err := d.Uint64()
	if err != nil {
		return 0, nil, err
	}
	eq := &core.Equilibrium{}
	if eq.Ptrip, err = d.Float(); err != nil {
		return 0, nil, err
	}
	if eq.Sprinters, err = d.Float(); err != nil {
		return 0, nil, err
	}
	iters, err := d.Uvarint()
	if err != nil {
		return 0, nil, err
	}
	eq.Iterations = int(iters)
	conv, err := d.Byte()
	if err != nil {
		return 0, nil, err
	}
	eq.Converged = conv != 0
	if eq.Residuals, err = d.FloatColumn(); err != nil {
		return 0, nil, err
	}
	n, err := d.Uvarint()
	if err != nil {
		return 0, nil, err
	}
	// Every class costs at least 10 payload bytes; reject corrupt counts
	// before allocating.
	if n > uint64(d.Remaining()/10+1) {
		return 0, nil, fmt.Errorf("persist: class count %d exceeds remaining %d bytes", n, d.Remaining())
	}
	eq.Classes = make([]core.ClassOutcome, n)
	for i := range eq.Classes {
		c := &eq.Classes[i]
		if c.Name, err = d.String(); err != nil {
			return 0, nil, err
		}
		if c.Threshold, err = d.Float(); err != nil {
			return 0, nil, err
		}
		if c.SprintProb, err = d.Float(); err != nil {
			return 0, nil, err
		}
		if c.ActiveFrac, err = d.Float(); err != nil {
			return 0, nil, err
		}
		if c.ExpectedSprinters, err = d.Float(); err != nil {
			return 0, nil, err
		}
		if c.Values.VA, err = d.Float(); err != nil {
			return 0, nil, err
		}
		if c.Values.VC, err = d.Float(); err != nil {
			return 0, nil, err
		}
		if c.Values.VR, err = d.Float(); err != nil {
			return 0, nil, err
		}
		if c.Values.Threshold, err = d.Float(); err != nil {
			return 0, nil, err
		}
		if c.Values.Ptrip, err = d.Float(); err != nil {
			return 0, nil, err
		}
	}
	if d.Remaining() != 0 {
		return 0, nil, fmt.Errorf("persist: %d trailing bytes", d.Remaining())
	}
	return key, eq, nil
}
