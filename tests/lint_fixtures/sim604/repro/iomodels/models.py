# Seeded bug for SIM604: OrphanModel defines register_telemetry but no
# registered builder ever instantiates it.  LiveModel is reached through
# the consolidated_per_host higher-order indirection — reachability must
# follow the factory passed by name, or the sanctioned idiom would be a
# false positive.
from .registry import ModelInfo, consolidated_per_host, register_model


class LiveModel:
    def __init__(self, env):
        self.env = env

    def register_telemetry(self, namespace):        # quiet: reachable
        namespace.counter("live.requests")


class OrphanModel:
    def register_telemetry(self, namespace):        # finding
        namespace.counter("orphan.requests")


def _make_host(ctx, host):
    return LiveModel(ctx.env)


def _build_consolidation(ctx):
    return consolidated_per_host(ctx, _make_host)


register_model(ModelInfo(
    name="live",
    build_consolidation=_build_consolidation,
))


# Shared-base shape: the builder is a classmethod on the base, so which
# class it constructs is the one it is called through.  ``cls(...)``
# instantiates the base and every subclass, so both hooks are reachable.
class FamilyBase:
    def register_telemetry(self, namespace):        # quiet: reachable
        namespace.counter("family.requests")

    @classmethod
    def build(cls, ctx):
        return cls(ctx.env)


class FamilyModel(FamilyBase):
    def __init__(self, env):
        self.env = env

    def register_telemetry(self, namespace):        # quiet: reachable
        namespace.counter("family.model.requests")


register_model(ModelInfo(
    name="family",
    build_simple=FamilyModel.build,
))
