"""Package-level properties: what importing aoinet costs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import aoinet


def test_import_loads_no_scipy():
    # scipy.sparse.linalg alone adds about 30 MB of resident memory and tenths
    # of a second to start-up; the package and its CLI must not pull it in
    src = Path(aoinet.__file__).resolve().parents[1]
    code = (
        "import json, sys; import aoinet, aoinet.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == []
