package controller

import (
	"fixture/internal/ofconn"
	"fixture/internal/openflow"
)

type datapath struct{ conn *ofconn.Conn }

type jobDispatch struct {
	batch   ofconn.Batch
	mod     wireMod
	barrier openflow.BarrierRequest
}

// wireMod is where a rule becomes a FlowMod.
type wireMod struct{ fm openflow.FlowMod }

// write is the walk's one install write.
func (st *jobDispatch) write(dp *datapath) error {
	st.batch.Add(&st.barrier)
	return dp.conn.WriteBatch(&st.batch)
}

// flush hands the write to a goroutine.
func (st *jobDispatch) flush(dp *datapath) {
	go st.write(dp)
}
