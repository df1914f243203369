package clusterflags

import (
	"flag"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBinariesListEveryFlag builds samnode and samstore and checks that
// each one's -h output carries every cluster flag with the shared help
// text: the binder is the only definition, and both binaries bind it.
func TestBinariesListEveryFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries")
	}
	fs := flag.NewFlagSet("probe", flag.ContinueOnError)
	Bind(fs)
	var want []*flag.Flag
	fs.VisitAll(func(f *flag.Flag) { want = append(want, f) })
	if len(want) != 13 {
		t.Fatalf("binder registers %d flags, want 13", len(want))
	}
	for _, bin := range []string{"samnode", "samstore"} {
		exe := filepath.Join(t.TempDir(), bin)
		if out, err := exec.Command("go", "build", "-o", exe, "samsys/cmd/"+bin).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", bin, err, out)
		}
		out, _ := exec.Command(exe, "-h").CombinedOutput() // -h exits non-zero on some Go versions
		help := string(out)
		for _, f := range want {
			if !strings.Contains(help, "  -"+f.Name) || !strings.Contains(help, f.Usage) {
				t.Errorf("%s -h does not list -%s with its help text", bin, f.Name)
			}
		}
	}
}
