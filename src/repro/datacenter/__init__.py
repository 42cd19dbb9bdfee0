"""Data-centre model: machines, resources, power, and live migration.

Implements the system model of the paper's section III:

* every PM has CPU, memory and a network interface
  (:class:`~repro.datacenter.resources.MachineSpec`);
* a VM monitor (VMM) profiles total PM utilisation and the per-VM
  *current* and *running-average* demand ``{c, v}``: columns of the one
  :class:`~repro.datacenter.columnar.ColumnarStore`, read by PM / VM id
  and refreshed for every VM at once each round;
* live migration has a duration driven by VM memory size and available
  bandwidth, and an energy overhead per Strunk & Dargie (paper eq. 3)
  (:mod:`~repro.datacenter.migration`);
* PM power is a linear function of CPU utilisation
  (:mod:`~repro.datacenter.power`).

Normalisation convention (documented in DESIGN.md): a VM's *demand* is
a fraction of its own nominal spec as given by the trace; PM-level
utilisation normalises the sum of hosted VM demands by the PM capacity.
"""
