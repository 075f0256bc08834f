package atom

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"atom/internal/taxonomy"
)

// publicSentinels maps every exported Err* of errors.go to its value and
// to the internal value the lower layers return. TestSentinelsHaveWireBits
// fails when errors.go declares one this map does not list.
var publicSentinels = map[string][2]error{
	"ErrRoundAborted":        {ErrRoundAborted, taxonomy.ErrRoundAborted},
	"ErrTrapTripped":         {ErrTrapTripped, taxonomy.ErrTrapTripped},
	"ErrProofRejected":       {ErrProofRejected, taxonomy.ErrProofRejected},
	"ErrBadSubmission":       {ErrBadSubmission, taxonomy.ErrBadSubmission},
	"ErrDuplicateSubmission": {ErrDuplicateSubmission, taxonomy.ErrDuplicateSubmission},
	"ErrRoundClosed":         {ErrRoundClosed, taxonomy.ErrRoundClosed},
	"ErrMemberLost":          {ErrMemberLost, taxonomy.ErrMemberLost},
	"ErrRecoveryNeeded":      {ErrRecoveryNeeded, taxonomy.ErrRecoveryNeeded},
	"ErrVariantMismatch":     {ErrVariantMismatch, taxonomy.ErrVariantMismatch},
	"ErrNoSuchGroup":         {ErrNoSuchGroup, taxonomy.ErrNoSuchGroup},
	"ErrStateCorrupt":        {ErrStateCorrupt, taxonomy.ErrStateCorrupt},
	"ErrConfigMismatch":      {ErrConfigMismatch, taxonomy.ErrConfigMismatch},
	"ErrSetupFailed":         {ErrSetupFailed, taxonomy.ErrSetupFailed},
	"ErrDKGInsufficient":     {ErrDKGInsufficient, taxonomy.ErrDKGInsufficient},
	"ErrServiceClosed":       {ErrServiceClosed, taxonomy.ErrServiceClosed},
	"ErrResultExpired":       {ErrResultExpired, taxonomy.ErrResultExpired},
	"ErrProtocolVersion":     {ErrProtocolVersion, taxonomy.ErrProtocolVersion},
}

// TestSentinelsAreTheInternalValues: every public sentinel is the very
// value the protocol, dkg, store, distributed and daemon layers return,
// so no translation stands between them and a caller's errors.Is.
func TestSentinelsAreTheInternalValues(t *testing.T) {
	for name, pair := range publicSentinels {
		if pair[0] != pair[1] {
			t.Errorf("%s is not taxonomy.%s", name, name)
		}
	}
}

// TestSentinelsHaveWireBits parses errors.go and fails for any exported
// Err* without a wire form: a sentinel that the taxonomy table does not
// carry would arrive untyped after a daemon or cluster hop.
func TestSentinelsHaveWireBits(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "errors.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if spec, ok := n.(*ast.ValueSpec); ok {
			for _, name := range spec.Names {
				if name.IsExported() && strings.HasPrefix(name.Name, "Err") {
					declared[name.Name] = true
				}
			}
		}
		return true
	})
	if len(declared) == 0 {
		t.Fatal("errors.go declares no sentinels")
	}
	for name := range declared {
		pair, ok := publicSentinels[name]
		if !ok {
			t.Errorf("errors.go declares %s, which has no wire bit: add it to internal/taxonomy's table and to publicSentinels", name)
			continue
		}
		hopped, _, ok := taxonomy.ReadError(taxonomy.AppendError(nil, pair[0]))
		if !ok || !errors.Is(hopped, pair[0]) {
			t.Errorf("%s does not survive the wire form: no bit in internal/taxonomy's table", name)
		}
	}
	for name := range publicSentinels {
		if !declared[name] {
			t.Errorf("publicSentinels lists %s, which errors.go does not declare", name)
		}
	}
}
