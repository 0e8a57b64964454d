package admission

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The request journal is NDJSON: one journalRecord per mutating tick, in
// tick order. Replay correctness depends on recording *batches*, not
// individual requests: a batch reserves its items in order before it
// builds any, so an item's slots can depend on every earlier item of the
// same batch — including items that committed a reservation and then
// failed downstream (outcome "aborted"). Replay therefore re-forms the exact
// batch (every allocation-touching attempt, in order) and closes the
// aborted items afterwards, which reproduces occupancy bit-for-bit.

// Outcome classifies one open attempt for replay.
const (
	outcomeOK      = "ok"      // committed; Handle is live
	outcomeNoFit   = "nofit"   // failed inside the allocator; no occupancy effect
	outcomeAborted = "aborted" // allocated, then failed downstream and was released
)

// journalOpen is one open attempt of a batch.
type journalOpen struct {
	Handle  uint64   `json:"handle,omitempty"` // only for outcome "ok"
	Tenant  string   `json:"tenant"`
	Spec    WireSpec `json:"spec"`
	Outcome string   `json:"outcome"`
}

// journalRecord is one mutating tick: teardowns applied first, then the
// open batch.
type journalRecord struct {
	Seq    uint64        `json:"seq"`
	Tick   uint64        `json:"tick"`
	Closes []uint64      `json:"closes,omitempty"`
	Opens  []journalOpen `json:"opens,omitempty"`
}

// journalWriter appends records to an NDJSON file, flushing after every
// record so a killed process loses at most the record being written.
type journalWriter struct {
	f   *os.File
	buf *bufio.Writer
	enc *json.Encoder
}

// openJournal opens path for appending. A torn tail (an unterminated
// last line left by a killed write) is cut first, so the next record
// starts on a line of its own instead of being glued onto the fragment.
// The cut record was never acknowledged: replies go out after Append.
func openJournal(path string) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("admission: open journal: %w", err)
	}
	if err := cutTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("admission: open journal: %w", err)
	}
	buf := bufio.NewWriter(f)
	return &journalWriter{f: f, buf: buf, enc: json.NewEncoder(buf)}, nil
}

// cutTornTail truncates f just after its last newline.
func cutTornTail(f *os.File) error {
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	buf := make([]byte, 4096)
	for off := end; off > 0; {
		n := min(off, int64(len(buf)))
		off -= n
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			if keep := off + int64(i) + 1; keep < end {
				return f.Truncate(keep)
			}
			return nil
		}
	}
	if end > 0 {
		return f.Truncate(0)
	}
	return nil
}

func (w *journalWriter) Append(rec journalRecord) error {
	if err := w.enc.Encode(rec); err != nil {
		return err
	}
	return w.buf.Flush()
}

func (w *journalWriter) Close() error {
	if err := w.buf.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// readJournal loads every well-formed record with Seq > afterSeq, in file
// order. An unparsable last line is a torn write from a kill and is
// ignored; an unparsable line with anything after it is corruption, and
// the error names its line.
func readJournal(path string, afterSeq uint64) ([]journalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("admission: read journal: %w", err)
	}
	defer f.Close()
	var out []journalRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var torn error // an unparsable line: a torn tail unless another line follows
	for n := 1; sc.Scan(); n++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if torn != nil {
			return nil, torn
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			torn = fmt.Errorf("admission: journal line %d is corrupt and not the last: %w", n, err)
			continue
		}
		if rec.Seq > afterSeq {
			out = append(out, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("admission: read journal: %w", err)
	}
	return out, nil
}
