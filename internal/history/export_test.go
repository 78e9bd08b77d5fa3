package history

// SetRealRecords installs the function that makes the real records the
// codec benchmarks read. They come from diagnosis sessions, which
// internal/harness runs; it imports this package, so only the external
// test package (realrecord_test.go) can make them.
func SetRealRecords(build func() ([]*RunRecord, error)) { realRecords = build }

// realRecords makes the two real records the codec is priced on.
var realRecords func() ([]*RunRecord, error)
