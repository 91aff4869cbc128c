"""Reset the package's per-skeleton memo, so that a test counts the work of
a cold run.

Diagrams with equal skeletons share one `diagram.Skeleton`, and only the
skeletons in the intern table keep a refinement plan (with the plan's
linking map); `forget_plans` drops those plans but keeps the skeletons
shared.
"""

from splicezeta import diagram


def forget_plans():
    for skeleton in diagram._skeletons.values():
        skeleton.plan = None


def planned():
    """The interned skeletons that have a plan."""
    return [s for s in diagram._skeletons.values() if s.plan is not None]
