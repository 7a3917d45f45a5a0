#!/usr/bin/env bash
# Runs every mutant under mutants/. Each *.patch puts back a bug the suite
# once caught; its "killer:" line names the package and the test that must
# catch it again. For each patch the script checks out the repository's
# tracked files, edits included, into a temporary git worktree, applies
# the patch there and runs the killer with -count=1. It fails if a patch
# no longer applies, or if a killer does not fail with the bug back in.
#
# Usage, from anywhere in the repository: mutants/run.sh (make mutants).
set -u
root=$(git rev-parse --show-toplevel) || exit 1
# HEAD plus the tracked files' edits, as a commit nothing refers to.
rev=$(git -C "$root" -c user.name=mutants -c user.email=mutants@localhost stash create)
rev=${rev:-HEAD}
tmp=$(mktemp -d)
wt=$tmp/wt
trap 'git -C "$root" worktree remove --force "$wt" 2>/dev/null; rm -rf "$tmp"; git -C "$root" worktree prune' EXIT
git -C "$root" worktree add --quiet --detach "$wt" "$rev" || exit 1

status=0
for patch in "$root"/mutants/*.patch; do
	name=$(basename "$patch" .patch)
	read -r pkg test < <(sed -n 's/^killer: //p' "$patch")
	if ! git -C "$wt" apply "$patch"; then
		echo "FAIL $name: the patch no longer applies; refresh it with the code it mutates"
		status=1
		continue
	fi
	(cd "$wt" && go test -count=1 -run "^$test\$" "$pkg") >"$tmp/out" 2>&1
	if grep -q -- "--- FAIL: $test" "$tmp/out"; then
		echo "ok   $name: killed by $test"
	else
		echo "FAIL $name: $test did not fail with the bug back in:"
		tail -n 20 "$tmp/out"
		status=1
	fi
	git -C "$wt" checkout --quiet -- .
done
exit $status
