let with_enabled f = Sync_prims.Tier.with_ `Fast f
