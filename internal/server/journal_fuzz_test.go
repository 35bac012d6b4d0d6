package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// journalSeedFrames returns a small intact journal: one frame of each
// canary lifecycle op plus a clean-shutdown marker.
func journalSeedFrames(tb testing.TB) []byte {
	tb.Helper()
	var log []byte
	for _, rec := range []journalRecord{
		{Op: opCanaryStart, Tenant: "acme", Function: "sort", Trace: "t-1", Version: 2, ETag: `"sha256-00"`, Fraction: 0.25, MinSamples: 20, MaxFailureRate: 0.1},
		{Op: opCanaryProgress, Tenant: "acme", Function: "sort", Version: 2, Calls: 7, Failures: 1,
			Reporters: map[string]reporterCounts{"p1": {Calls: 4}, "p2": {Calls: 3, Failures: 1}}},
		{Op: opCanaryEnd, Tenant: "acme", Function: "sort", Version: 2, Decision: "promoted"},
		{Op: opCleanShutdown},
	} {
		frame, err := frameRecord(rec)
		if err != nil {
			tb.Fatal(err)
		}
		log = append(log, frame...)
	}
	return log
}

// FuzzScanJournal asserts the WAL frame decoder is total and
// self-consistent on arbitrary bytes: it never panics or reports an I/O
// error on an in-memory log, the good prefix it reports is exactly the
// bytes it replayed (rescanning that prefix is clean and yields the same
// records), the log is intact precisely when the prefix is the whole
// input, and a record appended after the prefix — what recovery does
// after truncating a bad tail — is read back.
func FuzzScanJournal(f *testing.F) {
	good := journalSeedFrames(f)
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:len(good)-3]) // torn final payload
	f.Add(good[:5])           // torn first header
	flipped := append([]byte(nil), good...)
	flipped[12] ^= 0x40 // CRC mismatch in the first frame
	f.Add(flipped)
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge, journalFrameLimit+1)
	f.Add(huge)
	zero := make([]byte, 8)
	f.Add(zero)
	badJSON := []byte("{not json")
	frame := make([]byte, 8, 8+len(badJSON))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(badJSON)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(badJSON))
	f.Add(append(append(append([]byte(nil), good...), frame...), badJSON...))

	tail, err := frameRecord(journalRecord{Op: opCleanShutdown})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		records, off, corrupt, err := scanJournal(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("in-memory scan reported an I/O error: %v", err)
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("good offset %d outside [0, %d]", off, len(data))
		}
		if (corrupt == nil) != (off == int64(len(data))) {
			t.Fatalf("corrupt=%v but good prefix %d of %d bytes", corrupt, off, len(data))
		}
		if corrupt != nil && corrupt.Offset != off {
			t.Fatalf("corrupt tail at %d, good prefix ends at %d", corrupt.Offset, off)
		}
		prefix := data[:off:off]
		again, off2, corrupt2, err := scanJournal(bytes.NewReader(prefix))
		if err != nil || corrupt2 != nil || off2 != off || len(again) != len(records) {
			t.Fatalf("rescanning the good prefix: %d records to %d (corrupt %v, err %v), want %d to %d",
				len(again), off2, corrupt2, err, len(records), off)
		}
		for i := range again {
			if again[i].Op != records[i].Op {
				t.Fatalf("record %d op %q on rescan, was %q", i, again[i].Op, records[i].Op)
			}
		}
		grown, _, corrupt3, err := scanJournal(bytes.NewReader(append(prefix, tail...)))
		if err != nil || corrupt3 != nil || len(grown) != len(records)+1 || grown[len(records)].Op != opCleanShutdown {
			t.Fatalf("append after the good prefix not read back: %d records (corrupt %v, err %v)", len(grown), corrupt3, err)
		}
	})
}
