#!/usr/bin/env bash
# Report the rigor:: functions that librigor.a defines but that no
# program links: a list of candidates for deletion, not a gate.
#
#   scripts/unlinked_functions.sh <build-dir>
#
# Builds, under <build-dir>, every non-test executable of the repo
# (tools/, bench/, examples/) and perfbench's driver at -O0 with
# -ffunction-sections -fdata-sections and links them with
# --gc-sections, so an image keeps exactly the functions reachable
# from its main(). It then prints, demangled and sorted, every
# rigor:: function (nm type T or W; std:: instantiations and lambdas
# excluded) that librigor.a defines and no image keeps. Functions
# that only the tests call show up here. Writes nothing outside
# <build-dir>.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$1"
out="$(cd "$1" && pwd)"
jobs="$(nproc)"

flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -S "$repo" -B "$out/main" -G "Unix Makefiles" "${flags[@]}" \
    >/dev/null
for dir in tools bench examples; do
    make -C "$out/main/$dir" -j "$jobs" >/dev/null
done
cmake -S "$repo/perfbench" -B "$out/perfbench" -G "Unix Makefiles" \
    "${flags[@]}" >/dev/null
cmake --build "$out/perfbench" -j "$jobs" --target perfbench_driver \
    >/dev/null

# functions <nm types> <file>...: the demangled names of the
# functions of those nm types that the files define.
functions() {
    local types="$1"
    shift
    nm -P -C --defined-only "$@" 2>/dev/null |
        sed -nE "s/^(.*) [$types]( [0-9a-f]+){1,2}\$/\\1/p"
}

# Keep the lines whose function name, the text before the argument
# list after any return type, is in namespace rigor: this drops
# std:: instantiations over rigor types (their return type may be a
# rigor:: type).
rigor_functions() {
    awk '{
        depth = 0; start = 1
        for (i = 1; i <= length($0); i++) {
            c = substr($0, i, 1)
            if (c == "<") depth++
            else if (c == ">") depth--
            else if (c == " " && depth == 0) start = i + 1
            else if (c == "(" && depth == 0) break
        }
        if (substr($0, start, 7) == "rigor::") print
    }'
}

images=$(find "$out/main/tools" "$out/main/bench" "$out/main/examples" \
              "$out/perfbench" -maxdepth 1 -type f -perm -u+x)
# shellcheck disable=SC2086
functions TtWw $images | sort -u >"$out/kept.txt"
functions TW "$out/main/src/librigor.a" |
    rigor_functions | grep -v '{lambda' | sort -u >"$out/defined.txt"
comm -23 "$out/defined.txt" "$out/kept.txt"
