#!/usr/bin/env bash
# netlines.sh prints the lines added, removed and net in non-test Go and
# assembly files between BASE (default HEAD) and the working tree,
# counting untracked files as added:
#
#   scripts/netlines.sh            # the working tree against HEAD
#   scripts/netlines.sh HEAD~3     # against another commit
set -euo pipefail

base="${1:-HEAD}"
cd "$(git rev-parse --show-toplevel)"
{
	git diff --numstat "$base" -- '*.go' '*.s'
	git ls-files --others --exclude-standard -- '*.go' '*.s' | while read -r f; do
		printf '%d\t0\t%s\n' "$(wc -l <"$f")" "$f"
	done
} | awk -F'\t' '$3 !~ /_test\.go$/ { added += $1; removed += $2 }
	END { printf "added %d\nremoved %d\nnet %+d\n", added, removed, added - removed }'
