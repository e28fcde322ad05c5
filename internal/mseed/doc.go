// Package mseed implements reading and writing of Mini-SEED (mSEED) data,
// the subset of the SEED 2.4 standard used to exchange seismic waveform
// time series among seismograph networks.
//
// An mSEED file is a sequence of fixed-length records (commonly 512 or
// 4096 bytes). Each record carries a 48-byte fixed data header (station,
// network, channel and location codes, start time, sample count and rate),
// a chain of blockettes (blockette 1000 declares the payload encoding, the
// byte order and the record length), and a compressed or raw payload of
// samples.
//
// The package supports the encodings that dominate real repositories:
// 16- and 32-bit integers, IEEE floats, and the Steim1/Steim2 difference
// compression schemes used by virtually all permanent networks.
//
// Two access paths are provided, mirroring the cost asymmetry that lazy
// ETL exploits:
//
//   - ScanHeaders parses only the fixed headers and blockettes of each
//     record (a few dozen bytes per record), enough to build a metadata
//     catalog without decoding sample payloads. It reads the stream in
//     64 KiB chunks rather than header by header: for the 512-byte and
//     4 KiB records archives use, a header-sized read per record crosses
//     into the kernel once per record and touches every page of the file
//     anyway. Only a record longer than a chunk is skipped unread.
//   - ReadRecordSamples decodes the payload of a single record identified
//     by a prior header scan.
//
// All multi-byte header fields are big-endian as written by this package;
// the reader additionally accepts little-endian records (detected via the
// blockette-1000 word-order flag and a year sanity check).
package mseed
