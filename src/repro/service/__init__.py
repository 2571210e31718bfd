"""Always-on simulation service: HTTP front door, in-flight dedup, and
a persistent content-addressed result store.

Submodules (import them directly — this package stays lazy so that
``repro.harness.parallel``'s optional store consult never drags HTTP
machinery into a plain sweep):

* :mod:`repro.service.results` — the content-addressed result store
* :mod:`repro.service.server` — the HTTP/JSON service itself, with its
  bounded admission queue drained in arrival order
* :mod:`repro.service.client` — client library + ``run_jobs`` adapter
"""
