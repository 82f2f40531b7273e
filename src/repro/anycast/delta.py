"""Delta-aware what-if planning for independently attached deployments.

The paper's comparative what-ifs ("withdraw K-root's site 0", "add a
site in São Paulo") change a handful of attachments while the rest of
the announcement set — and therefore the vast majority of catchments —
stays put.  This module turns such an edit into a
:class:`DeploymentMutation` (pure planning, no propagation) and applies
it either by **delta** (scoped BGP re-propagation via
:func:`repro.bgp.repropagate` plus an in-place
:meth:`~repro.anycast.batch.FlowKernel.apply_delta` patch) or by the
full **rebuild** path, which stays both the fallback and the oracle:
the two produce bitwise-identical deployments, which
``tests/test_delta.py`` asserts.

Fallback semantics (:func:`apply_mutation`):

* deployments with ``supports_delta == False`` (CDN rings) rebuild;
* a mutation that changes the tiebreak seed rebuilds — the old table is
  not a fixed point under the new tiebreaker;
* :class:`repro.bgp.RepropagationOverflow` (work-budget blowout on a
  pathological topology) rebuilds.

Every fallback increments ``kernel.delta.fallbacks.total``; successful
patches increment ``kernel.delta.applies.total`` (inside
``FlowKernel.apply_delta``) and show up as ``kernel.delta`` spans.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..bgp import Attachment, RepropagationOverflow, repropagate
from ..geo import make_rng
from ..obs import get_logger, metrics
from ..topology.kinds import Relationship
from .batch import KernelDelta
from .builders import _hosting_transits
from .deployment import IndependentDeployment
from .site import Site

__all__ = [
    "DeltaUnsupported",
    "DeploymentMutation",
    "plan_withdraw",
    "plan_add_regions",
    "rebuild",
    "DeltaKernel",
    "apply_mutation",
]

_log = get_logger("anycast.delta")


class DeltaUnsupported(RuntimeError):
    """The deployment (or mutation) cannot take the delta path."""


@dataclass(frozen=True)
class DeploymentMutation:
    """A fully planned deployment edit, ready to apply either way.

    Holds the *complete* post-edit state (sites, announcement set, the
    attachment→site map, tiebreak seed) so that :func:`rebuild` and
    :class:`DeltaKernel` consume the identical plan — the equivalence
    guarantee is over this object.  Surviving :class:`Attachment`
    objects are carried over by reference, which keeps the delta diff
    O(changed).
    """

    name: str
    sites: tuple[Site, ...]
    attachments: tuple[Attachment, ...]
    site_of_attachment: dict[int, int]
    seed: int


def plan_withdraw(
    deployment: IndependentDeployment,
    failed_site_ids: Iterable[int],
    seed: int | None = None,
) -> DeploymentMutation:
    """Plan a letter-style deployment minus the failed sites.

    Surviving sites keep their identity (region, global/local flag) but
    are re-numbered, as the new deployment is a fresh announcement set.
    The tiebreak seed defaults to the original deployment's, so the
    *only* change is the withdrawal itself.  Raises if no global site
    survives (the service would be dark).
    """
    if seed is None:
        seed = deployment.seed
    failed = set(failed_site_ids)
    unknown = failed - {s.site_id for s in deployment.sites}
    if unknown:
        raise ValueError(f"unknown site ids: {sorted(unknown)}")
    survivors = [s for s in deployment.sites if s.site_id not in failed]
    if not any(s.is_global for s in survivors):
        raise ValueError("cannot withdraw every global site")

    new_id_of_old = {site.site_id: i for i, site in enumerate(survivors)}
    new_sites = tuple(
        Site(site_id=i, region_id=s.region_id, name=s.name, is_global=s.is_global)
        for i, s in enumerate(survivors)
    )
    attachments: list[Attachment] = []
    site_of_attachment: dict[int, int] = {}
    for attachment in deployment.routing.attachments.values():
        old_site = deployment.site_of_attachment[attachment.attachment_id]
        if old_site in failed:
            continue
        attachments.append(attachment)
        site_of_attachment[attachment.attachment_id] = new_id_of_old[old_site]
    return DeploymentMutation(
        name=f"{deployment.name} (-{len(failed)} sites)",
        sites=new_sites,
        attachments=tuple(attachments),
        site_of_attachment=site_of_attachment,
        seed=seed,
    )


def plan_add_regions(
    deployment: IndependentDeployment, region_ids: list[int]
) -> DeploymentMutation:
    """Plan ``deployment`` plus new global sites in ``region_ids``.

    Mirrors :func:`~repro.anycast.builders.build_letter`'s transit
    hosting for the new sites, over the topology the deployment already
    carries (so a planner needs no ``internet`` artifact).  The RNG key
    is frozen to the historical ``serve.whatif:<regions>`` spelling
    (this planner started life in the serve layer) so existing goldens
    and replayed what-ifs keep building the same announcement set.
    """
    sites = list(deployment.sites)
    attachments = list(deployment.routing.attachments.values())
    site_of_attachment = dict(deployment.site_of_attachment)
    next_attachment = max(site_of_attachment, default=-1) + 1
    rng = make_rng(
        deployment.seed, f"serve.whatif:{','.join(map(str, region_ids))}"
    )
    for region_id in region_ids:
        site_id = len(sites)
        sites.append(
            Site(
                site_id=site_id,
                region_id=region_id,
                name=f"W{site_id:03d}",
                is_global=True,
            )
        )
        for host in _hosting_transits(deployment.topology, region_id, rng, 1):
            attachments.append(
                Attachment(
                    attachment_id=next_attachment,
                    host_asn=host,
                    origin_role=Relationship.CUSTOMER,
                    region_id=region_id,
                    local=False,
                )
            )
            site_of_attachment[next_attachment] = site_id
            next_attachment += 1
    return DeploymentMutation(
        name=f"{deployment.name} (+{len(region_ids)} sites)",
        sites=tuple(sites),
        attachments=tuple(attachments),
        site_of_attachment=site_of_attachment,
        seed=deployment.seed,
    )


def rebuild(
    deployment: IndependentDeployment, mutation: DeploymentMutation
) -> IndependentDeployment:
    """Apply a mutation the cold way: full propagation, fresh kernel.

    This is both the fallback and the oracle the delta path is proved
    against — :class:`DeltaKernel` must produce a bitwise-identical
    deployment.
    """
    return IndependentDeployment(
        topology=deployment.topology,
        name=mutation.name,
        origin_asn=deployment.origin_asn,
        sites=mutation.sites,
        attachments=list(mutation.attachments),
        site_of_attachment=dict(mutation.site_of_attachment),
        seed=mutation.seed,
    )


class DeltaKernel:
    """Applies mutations to one deployment via scoped re-propagation.

    Wraps the two delta primitives — :func:`repro.bgp.repropagate` for
    the routing table and :meth:`FlowKernel.apply_delta` for the numpy
    tables — into "give me the mutated deployment".  Raises
    :class:`DeltaUnsupported` when the deployment opted out or the
    mutation changes the tiebreak seed; raises
    :class:`repro.bgp.RepropagationOverflow` when the work budget blows
    (callers fall back to :func:`rebuild` either way).
    """

    def __init__(self, deployment: IndependentDeployment):
        if not getattr(deployment, "supports_delta", False):
            raise DeltaUnsupported(
                f"deployment {deployment.name!r} does not support delta updates"
            )
        self.deployment = deployment

    def apply(self, mutation: DeploymentMutation) -> IndependentDeployment:
        deployment = self.deployment
        if mutation.seed != deployment.seed:
            raise DeltaUnsupported(
                "mutation changes the tiebreak seed; the old table is not "
                "a valid fixed point to repair from"
            )
        delta = repropagate(
            deployment.topology,
            deployment.routing,
            list(mutation.attachments),
            seed=mutation.seed,
        )
        kernel = deployment.kernel.clone()
        kernel.apply_delta(KernelDelta.from_routing_delta(delta))
        return IndependentDeployment(
            topology=deployment.topology,
            name=mutation.name,
            origin_asn=deployment.origin_asn,
            sites=mutation.sites,
            attachments=list(mutation.attachments),
            site_of_attachment=dict(mutation.site_of_attachment),
            seed=mutation.seed,
            routing=delta.table,
            kernel=kernel,
        )


def apply_mutation(
    deployment: IndependentDeployment,
    mutation: DeploymentMutation,
    *,
    prefer_delta: bool = True,
) -> IndependentDeployment:
    """Apply a planned mutation, taking the delta path when possible.

    The single entry point the serve/what-if layers use.  Counts every
    rebuild fallback in ``kernel.delta.fallbacks.total`` so operators
    can see when the fast path is not carrying traffic.
    """
    if prefer_delta:
        try:
            return DeltaKernel(deployment).apply(mutation)
        except (DeltaUnsupported, RepropagationOverflow) as reason:
            _log.debug(
                "delta fallback for %r: %s", getattr(deployment, "name", "?"), reason
            )
    metrics.counter("kernel.delta.fallbacks.total").inc()
    return rebuild(deployment, mutation)
