"""Per-project GPU quotas.

"Groups of users have a maximum quota of GPUs that is determined by a
project-specific allocation" (Section II-A).  The quota gates *starting*
jobs, not submitting them: a job whose project is at its cap simply waits
in the queue even if capacity is free, which is one of the queueing terms
in measured ETTR.
"""

from typing import Dict, Optional


class QuotaManager:
    """Tracks running GPU usage per project against optional caps."""

    def __init__(self, quotas: Optional[Dict[str, int]] = None):
        self._quotas: Dict[str, int] = dict(quotas) if quotas else {}
        self._usage: Dict[str, int] = {}
        for project, cap in self._quotas.items():
            if cap <= 0:
                raise ValueError(f"quota for {project!r} must be positive, got {cap}")

    def usage_of(self, project: str) -> int:
        return self._usage.get(project, 0)

    def may_start(self, project: str, gpus: int) -> bool:
        """Would starting a ``gpus``-GPU job keep the project within cap?"""
        cap = self._quotas.get(project)
        if cap is None:
            return True
        return self.usage_of(project) + gpus <= cap

    def acquire(self, project: str, gpus: int) -> None:
        if not self.may_start(project, gpus):
            raise RuntimeError(
                f"project {project!r} would exceed its quota "
                f"({self.usage_of(project)} + {gpus} > {self._quotas[project]})"
            )
        self._usage[project] = self.usage_of(project) + gpus

    def release(self, project: str, gpus: int) -> None:
        current = self.usage_of(project)
        if gpus > current:
            raise RuntimeError(
                f"project {project!r}: releasing {gpus} GPUs exceeds "
                f"tracked usage {current}"
            )
        self._usage[project] = current - gpus
