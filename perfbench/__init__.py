"""Client-observed benchmark of the HTTP compilation service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` boots the real server, drives it over keep-alive HTTP and
prints one JSON result line; see ``perfbench/README.md``.
"""
