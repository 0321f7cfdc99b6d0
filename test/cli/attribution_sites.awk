# Keep the attribution report of `oclcu prof TARGET --attribute [--diff]`:
# each run's label line, its per-site table and the --diff table, laid
# out as the test/golden/prof_*_attribute.txt files are.
/^==.*== Profiling result:$/ { sub(/ Profiling result:$/, ""); print; next }
/^Per-site attribution|^Translation cost diff/ { on = 1 }
/^Pool telemetry|^$/ { on = 0 }
on
