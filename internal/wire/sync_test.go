package wire

import (
	"strings"
	"testing"
)

// TestKindTablesInSync pins the String table against maxKind: every kind
// in 1..maxKind has a name, and nothing outside that range does. A new
// kind missing from the table fails here, complementing the wirekind
// analyzer (which proves the same property statically in cmd/di-lint): the
// analyzer catches the omission at lint time, this test catches it even
// when the lint step is skipped.
func TestKindTablesInSync(t *testing.T) {
	for k := Kind(1); k <= maxKind; k++ {
		if s := k.String(); strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d is below maxKind but missing from the String table (got %q)", k, s)
		}
	}
	for _, k := range []Kind{0, maxKind + 1} {
		if s := k.String(); !strings.HasPrefix(s, "Kind(") {
			t.Errorf("Kind(%d).String() = %q; a named kind outside 1..maxKind means the boundary constant is stale", k, s)
		}
	}
}
