package plan

// FileStamp identifies one source file a query's answer depends on, at the
// staleness granularity the engine already uses everywhere else: the file's
// modification time and size. Lazy extraction reports one stamp per distinct
// file it resolves (cache hits included), so a result cached with its stamps
// can be re-validated by stat alone — if any stamp no longer matches the
// live file, the cached answer may differ from fresh execution and must be
// dropped.
type FileStamp struct {
	URI        string
	Path       string // absolute path, for re-stat
	MtimeNanos int64
	Size       int64
}
