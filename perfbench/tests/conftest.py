import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's modules are flat scripts next to run.py
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))
