package org.apache.spark.qr2bench

import org.apache.spark.SparkContext

/** Waits until every event posted so far has reached the registered
  * listeners, so job counts read after a phase include all of its jobs.
  * (The listener bus is `private[spark]`; this object only forwards.)
  */
object ListenerBusDrain {
  def apply(sc: SparkContext, timeoutMs: Long = 30000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)
}
