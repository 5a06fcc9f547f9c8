import os
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# A longer soundness run for CI: HYPOTHESIS_PROFILE=deep.
settings.register_profile("deep", settings.get_profile("suite"),
                          max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))
