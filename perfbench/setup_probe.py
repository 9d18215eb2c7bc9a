"""Set-up probe: import the package and load one workload's graph, then exit.

``run.py`` times this script from process start to exit; that is the
``setup_s`` a user of the ``stochmatch`` command pays before any work.

    python3 perfbench/setup_probe.py <config.json>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stochmatch import cli  # noqa: E402

cli.load_graph(cli.load_config(sys.argv[1], {}))
