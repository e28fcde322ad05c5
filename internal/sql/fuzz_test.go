package sql

import (
	"strings"
	"testing"
)

// FuzzParse asserts the front-end's crash-safety contract: arbitrary input
// must yield a statement or an error, never a panic — queries arrive from
// untrusted callers through the public Query API. On a successful parse,
// rendering the statement back to SQL must not panic either (the planner
// and trace rely on String()). The seeds include expressions nested at,
// just past and far past the parser's depth bound.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT 1",
		"SELECT * FROM mseed.files",
		"SELECT F.station, MIN(D.sample_value), MAX(D.sample_value)\n" +
			"FROM mseed.dataview WHERE F.network = 'NL' AND F.channel = 'BHZ'\n" +
			"GROUP BY F.station",
		"SELECT AVG(D.sample_value) FROM mseed.dataview " +
			"WHERE D.sample_time > '2010-01-12T22:15:00.000' AND D.sample_time < '2010-01-12T22:15:02.000'",
		"SELECT COUNT(DISTINCT station) FROM mseed.files " +
			"WHERE station LIKE 'H%' OR NOT (sample_rate >= 40) " +
			"GROUP BY network HAVING COUNT(*) > 1 ORDER BY network DESC LIMIT 10",
		"SELECT a + b * -c / 2 FROM t WHERE x IS NOT NULL;",
		"SELECT '",                   // unterminated string
		"SELECT (((",                 // unbalanced parens
		"\x00\xff SELECT",            // junk bytes
		"select 9223372036854775808", // int64 overflow
		"SELECT 1e309",               // float overflow
		"select  COUNT(*)  from mseed.files where station=? AND file_id > 3",
		";;", // canonicalizes to ";", and that to "": neither parses
	}
	// Nesting at the depth bound, one past it, and far past it.
	for _, n := range []int{maxDepth, maxDepth + 1, 10_000} {
		seeds = append(seeds,
			"SELECT x FROM t WHERE "+strings.Repeat("(", n)+"a = 1"+strings.Repeat(")", n),
			"SELECT x FROM t WHERE "+strings.Repeat("NOT ", n)+"a = 1",
			"SELECT "+strings.Repeat("- ", n)+"a FROM t",
			"SELECT "+strings.Repeat("MIN(", n)+"a"+strings.Repeat(")", n)+" FROM t")
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// A canonical template that parses is its own canonical template:
		// lazyetld hands it out as a prepared statement's handle and
		// prepares the handle again on every execution.
		if tmpl, err := CanonicalTemplate(src); err == nil {
			if _, err := ParseTemplate(tmpl); err == nil {
				if again, err := CanonicalTemplate(tmpl); again != tmpl {
					t.Fatalf("CanonicalTemplate(%q) = %q, but CanonicalTemplate of that is %q (%v)", src, tmpl, again, err)
				}
			}
		}
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		if stmt == nil {
			t.Fatal("nil statement with nil error")
		}
		if s := stmt.String(); s == "" {
			t.Fatal("successful parse rendered to an empty string")
		}
	})
}
